//! The bounded artifact store: a capacity-limited `DesyncEngine` must keep
//! its resident weight inside the budget by LRU eviction, count those
//! evictions, and — crucially — still produce bit-identical designs and
//! verification reports, recomputing whatever was evicted.

use desync_circuits::LinearPipelineConfig;
use desync_core::{DesyncEngine, DesyncFlow, DesyncOptions, DesyncRuntime, Stage, StoreConfig};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::VectorSource;

fn designs() -> Vec<Netlist> {
    [(3, 4, 1), (4, 6, 2), (2, 8, 1), (5, 4, 2)]
        .into_iter()
        .map(|(stages, width, depth)| {
            LinearPipelineConfig::balanced(stages, width, depth)
                .generate()
                .expect("pipeline generation")
        })
        .collect()
}

/// The workload's total resident weight when nothing is ever evicted.
fn unbounded_weight(netlists: &[Netlist], library: &CellLibrary) -> usize {
    let engine = DesyncEngine::with_workers(1);
    for netlist in netlists {
        engine
            .flow(netlist, library, DesyncOptions::default())
            .unwrap()
            .designed()
            .unwrap();
    }
    engine.report().resident_weight
}

#[test]
fn bounded_engine_keeps_weight_inside_capacity_and_stays_correct() {
    let netlists = designs();
    let library = CellLibrary::generic_90nm();
    let full_weight = unbounded_weight(&netlists, &library);
    assert!(full_weight > 0);

    // Half the workload's footprint: eviction must kick in. Per-stage
    // artifacts of these pipelines are all far below it, so the resident
    // bound is hard.
    let capacity = full_weight / 2;
    let engine = DesyncEngine::with_store_and_runtime(
        StoreConfig::default().with_capacity(capacity),
        DesyncRuntime::with_workers(1),
    );
    assert_eq!(engine.store_capacity(), Some(capacity));

    let mut first_pass = Vec::new();
    for netlist in &netlists {
        first_pass.push(
            engine
                .flow(netlist, &library, DesyncOptions::default())
                .unwrap()
                .design()
                .unwrap(),
        );
    }
    let report = engine.report();
    assert!(report.total_evictions() > 0, "{report}");
    assert!(
        report.resident_weight <= capacity,
        "resident {} exceeds capacity {capacity}",
        report.resident_weight
    );
    // Eviction counters surface per kind through the report (stages plus
    // the sync-run, compiled-model and sizing-analysis caches).
    assert_eq!(
        report.total_evictions(),
        report.stages.iter().map(|s| s.evictions).sum::<usize>()
            + report.sync_run_evictions
            + report.compiled_model_evictions
            + report.sizing_evictions,
    );

    // Every design equals its fresh detached computation even
    // though parts of the store were evicted mid-workload...
    for (netlist, cached) in netlists.iter().zip(&first_pass) {
        let fresh = DesyncFlow::new(netlist, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(cached, &fresh);
    }

    // ...and a request whose artifacts were evicted recomputes them (runs,
    // not hits) yet reproduces the identical design.
    let mut revisit = engine
        .flow(&netlists[0], &library, DesyncOptions::default())
        .unwrap();
    let recomputed = revisit.design().unwrap();
    assert_eq!(&recomputed, &first_pass[0]);
    let construction = [
        Stage::Clustered,
        Stage::Latched,
        Stage::Timed,
        Stage::Controlled,
    ];
    let reruns: usize = construction.iter().map(|&s| revisit.stage_runs(s)).sum();
    let hits: usize = construction.iter().map(|&s| revisit.cache_hits(s)).sum();
    assert!(
        reruns > 0,
        "the oldest request's artifacts should have been evicted"
    );
    assert_eq!(reruns + hits, construction.len());
    // The recomputation was republished and bounded again.
    assert!(engine.report().resident_weight <= capacity);
}

#[test]
fn evicted_sync_runs_reverify_bit_identically() {
    let netlist = LinearPipelineConfig::balanced(4, 6, 2)
        .generate()
        .expect("pipeline generation");
    let library = CellLibrary::generic_90nm();
    let inputs: Vec<_> = netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect();
    let cycles = 12;

    // Unbounded reference pass.
    let reference_engine = DesyncEngine::with_workers(1);
    let mut reference_reports = Vec::new();
    for seed in 0..4u64 {
        let stim = VectorSource::pseudo_random(inputs.clone(), seed);
        let mut flow = reference_engine
            .flow(&netlist, &library, DesyncOptions::default())
            .unwrap();
        flow.set_verification(stim, cycles);
        reference_reports.push(flow.verified().unwrap().clone());
    }
    let sync_weight = reference_engine.report().sync_run_resident_weight;
    assert!(sync_weight > 0);

    // A store too small for all four reference runs (but with room for the
    // construction artifacts): sync runs must be evicted...
    let capacity = reference_engine.report().resident_weight - sync_weight / 2;
    let engine = DesyncEngine::with_store_and_runtime(
        StoreConfig::default().with_capacity(capacity),
        DesyncRuntime::with_workers(1),
    );
    for round in 0..2 {
        for seed in 0..4u64 {
            let stim = VectorSource::pseudo_random(inputs.clone(), seed);
            let mut flow = engine
                .flow(&netlist, &library, DesyncOptions::default())
                .unwrap();
            flow.set_verification(stim, cycles);
            // ...and every report — first computation, cache hit or
            // post-eviction recomputation — equals the unbounded twin.
            assert_eq!(
                flow.verified().unwrap(),
                &reference_reports[seed as usize],
                "round {round} seed {seed}"
            );
        }
    }
    let report = engine.report();
    assert!(report.sync_run_evictions > 0, "{report}");
    assert!(report.resident_weight <= capacity);
    assert!(
        report.sync_run_misses > 4,
        "evicted reference runs must re-simulate: {report}"
    );
}
