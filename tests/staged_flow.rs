//! Integration tests of the staged pipeline API (`DesyncFlow`): resume
//! semantics across option changes, equality with the one-call
//! `Desynchronizer` wrapper, and determinism of parallel matched-delay
//! sizing — all exercised on generated benchmark circuits rather than
//! hand-built netlists.

use desync::prelude::*;

fn fir() -> Netlist {
    FirConfig::with_taps(4, 8)
        .generate()
        .expect("fir generation")
}

#[test]
fn protocol_sweep_reuses_early_stages() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    let mut flow =
        DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("valid options");
    let mut cycle_times = Vec::new();
    for &protocol in Protocol::all() {
        flow.set_protocol(protocol).expect("valid options");
        cycle_times.push(flow.design().expect("flow").cycle_time_ps());
    }
    // Clustering, latch conversion and delay sizing ran once for the whole
    // sweep; controller synthesis ran once per protocol.
    assert_eq!(flow.stage_runs(Stage::Clustered), 1);
    assert_eq!(flow.stage_runs(Stage::Latched), 1);
    assert_eq!(flow.stage_runs(Stage::Timed), 1);
    assert_eq!(flow.stage_runs(Stage::Controlled), Protocol::all().len());
    // Every resumed run produced a working control model.
    assert!(cycle_times.iter().all(|&c| c > 0.0), "{cycle_times:?}");
}

#[test]
fn margin_change_preserves_clustering_and_conversion() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    let mut flow =
        DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("valid options");
    let cells_tight = flow.timed().expect("timing").total_delay_cells();
    flow.set_margin(0.5).expect("valid margin");
    assert_eq!(flow.computed_through(), Some(Stage::Latched));
    let cells_wide = flow.timed().expect("timing").total_delay_cells();
    assert!(cells_wide >= cells_tight, "{cells_wide} vs {cells_tight}");
    assert_eq!(flow.stage_runs(Stage::Clustered), 1);
    assert_eq!(flow.stage_runs(Stage::Latched), 1);
    assert_eq!(flow.stage_runs(Stage::Timed), 2);
}

#[test]
fn a_detached_flow_serves_a_revisited_stage_from_its_store() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    let mut flow =
        DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("valid options");
    flow.timed().expect("timing");
    flow.set_margin(0.3).expect("valid margin");
    flow.timed().expect("timing");
    // Back to the default margin: the flow's private store still holds
    // that Timed artifact, so the visit is a hit, not a third run.
    flow.set_margin(DesyncOptions::default().matched_delay_margin)
        .expect("valid margin");
    flow.timed().expect("timing");
    assert_eq!(flow.stage_runs(Stage::Timed), 2);
    assert_eq!(flow.cache_hits(Stage::Timed), 1);
    let fresh = Desynchronizer::new(&netlist, &library, DesyncOptions::default())
        .run()
        .expect("wrapper flow");
    assert_eq!(flow.design().expect("flow"), fresh);
}

#[test]
fn staged_flow_matches_the_one_call_wrapper() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    for options in [
        DesyncOptions::default(),
        DesyncOptions::default()
            .with_protocol(Protocol::SemiDecoupled)
            .with_margin(0.2),
        DesyncOptions::default().with_clustering(ClusteringStrategy::PerRegister),
    ] {
        let via_wrapper = Desynchronizer::new(&netlist, &library, options)
            .run()
            .expect("wrapper flow");
        let via_stages = DesyncFlow::new(&netlist, &library, options)
            .expect("valid options")
            .design()
            .expect("staged flow");
        assert_eq!(via_wrapper, via_stages);
    }
}

#[test]
fn parallel_sizing_is_deterministic_on_a_wide_cluster_graph() {
    // The DLX has dozens of clusters, so parallel sizing genuinely fans out.
    let netlist = DlxConfig {
        width: 8,
        name: "dlx8".into(),
    }
    .generate()
    .expect("dlx generation");
    let library = CellLibrary::generic_90nm();
    let mut serial = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_parallel_sizing(false),
    )
    .expect("valid options");
    let mut parallel = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_parallel_sizing(true),
    )
    .expect("valid options");
    assert_eq!(
        serial.timed().expect("timing"),
        parallel.timed().expect("timing")
    );
    // Repeated parallel runs agree with themselves, too: a second, fresh
    // detached flow computes its own sizing (re-timing the first flow
    // would only be served from its store).
    let first = parallel.timed().expect("timing").clone();
    let mut repeat = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_parallel_sizing(true),
    )
    .expect("valid options");
    assert_eq!(&first, repeat.timed().expect("timing"));
    assert_eq!(repeat.stage_runs(Stage::Timed), 1);
    // An engine-attached flow sizes on the engine's persistent worker pool;
    // the result is bit-identical to both detached paths.
    let engine = DesyncEngine::with_workers(4);
    let mut pooled = engine
        .flow(
            &netlist,
            &library,
            DesyncOptions::default().with_parallel_sizing(true),
        )
        .expect("valid options");
    assert_eq!(&first, pooled.timed().expect("timing"));
    // Repeated pool runs (cache cleared in between) agree as well.
    engine.clear();
    pooled.invalidate_from(Stage::Timed);
    assert_eq!(&first, pooled.timed().expect("timing"));
    assert_eq!(pooled.cache_hits(Stage::Timed), 0);
    assert_eq!(pooled.stage_runs(Stage::Timed), 2);
}

#[test]
fn invalid_knobs_fail_fast_at_construction() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    let err = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_margin(-0.25),
    )
    .unwrap_err();
    assert!(matches!(err, DesyncError::InvalidOptions(_)), "{err}");
    let err = Desynchronizer::new(
        &netlist,
        &library,
        DesyncOptions::default().with_controller_delay_ps(0.0),
    )
    .run()
    .unwrap_err();
    assert!(matches!(err, DesyncError::InvalidOptions(_)), "{err}");
}

#[test]
fn flow_report_attributes_cost_to_stages() {
    let netlist = fir();
    let library = CellLibrary::generic_90nm();
    let mut flow =
        DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("valid options");
    flow.design().expect("flow");
    let report = flow.report();
    assert_eq!(report.netlist, netlist.name());
    assert_eq!(report.stages.len(), 5);
    assert!(report.clusters.unwrap() > 0);
    assert!(report.cycle_time_ps.unwrap() > 0.0);
    // Four construction stages ran; verification did not.
    let ran: usize = report.stages.iter().map(|s| s.runs).sum();
    assert_eq!(ran, 4);
    assert!(report.to_string().contains("flow report"));
}
