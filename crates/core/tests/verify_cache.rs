//! Incremental co-simulation: the synchronous reference-run cache (an
//! engine's shared store or a detached flow's private one) must change
//! *where* the sync run comes from, and nothing else — every
//! `EquivalenceReport` stays bit-identical to a fresh detached
//! verification.

use desync_circuits::LinearPipelineConfig;
use desync_core::{DesyncEngine, DesyncFlow, DesyncOptions, Protocol, Stage};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::VectorSource;

fn testbed() -> Netlist {
    LinearPipelineConfig::balanced(4, 6, 2)
        .generate()
        .expect("pipeline generation")
}

fn stimulus(netlist: &Netlist, seed: u64) -> VectorSource {
    let inputs: Vec<_> = netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect();
    VectorSource::pseudo_random(inputs, seed)
}

#[test]
fn engine_sweep_simulates_the_sync_side_once() {
    let netlist = testbed();
    let library = CellLibrary::generic_90nm();
    let engine = DesyncEngine::with_workers(2);
    let stim = stimulus(&netlist, 11);
    let cycles = 12;

    let mut reports = Vec::new();
    for &protocol in Protocol::all() {
        for margin in [0.05, 0.2] {
            let options = DesyncOptions::default()
                .with_protocol(protocol)
                .with_margin(margin);
            let mut flow = engine.flow(&netlist, &library, options).unwrap();
            flow.set_verification(stim.clone(), cycles);
            reports.push((options, flow.verified().unwrap().clone()));
        }
    }
    // Six sweep points, one sync simulation: every point after the first is
    // served from the engine's reference-run cache (protocol and margin do
    // not change the sync side).
    let engine_report = engine.report();
    assert_eq!(engine_report.sync_runs, 1);
    assert_eq!(engine_report.sync_run_misses, 1);
    assert_eq!(engine_report.sync_run_hits, 5);
    assert!(engine_report.to_string().contains("sync-run"));

    // Bit-identical to fresh detached verification: reports (sync run included)
    // equal those of detached flows re-simulating everything.
    for (options, cached_report) in &reports {
        let mut fresh = DesyncFlow::new(&netlist, &library, *options).unwrap();
        fresh.set_verification(stim.clone(), cycles);
        assert_eq!(fresh.verified().unwrap(), cached_report);
    }

    // A different stimulus, cycle count or timing config is a different
    // reference run — never served from the cache.
    let mut other = engine
        .flow(&netlist, &library, DesyncOptions::default())
        .unwrap();
    other.set_verification(stimulus(&netlist, 12), cycles);
    other.verified().unwrap();
    assert_eq!(other.sync_run_cache_hits(), 0);
    assert_eq!(engine.report().sync_runs, 2);

    let mut longer = engine
        .flow(&netlist, &library, DesyncOptions::default())
        .unwrap();
    longer.set_verification(stim.clone(), cycles + 1);
    longer.verified().unwrap();
    assert_eq!(longer.sync_run_cache_hits(), 0);
    assert_eq!(engine.report().sync_runs, 3);

    // `clear()` drops the reference runs along with the stage artifacts.
    engine.clear();
    assert_eq!(engine.report().sync_runs, 0);
}

#[test]
fn detached_flow_memoizes_the_reference_across_knob_changes() {
    let netlist = testbed();
    let library = CellLibrary::generic_90nm();
    let stim = stimulus(&netlist, 7);

    let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default()).unwrap();
    flow.set_verification(stim.clone(), 10);
    let first = flow.verified().unwrap().clone();
    assert_eq!(flow.sync_run_cache_hits(), 0);

    // A protocol change invalidates Verified but leaves the sync side
    // untouched: the re-verification reuses the flow's stored run.
    flow.set_protocol(Protocol::NonOverlapping).unwrap();
    flow.set_verification(stim.clone(), 10);
    let second = flow.verified().unwrap().clone();
    assert_eq!(flow.sync_run_cache_hits(), 1);
    assert_eq!(first.sync_run, second.sync_run);
    assert_eq!(flow.stage_runs(Stage::Verified), 2);

    // The stored result still equals a from-scratch verification.
    let mut fresh = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_protocol(Protocol::NonOverlapping),
    )
    .unwrap();
    fresh.set_verification(stim.clone(), 10);
    assert_eq!(fresh.verified().unwrap(), &second);

    // Changing the stimulus misses the store (key mismatch), a changed
    // timing config likewise (it moves the period and the sim config).
    flow.set_verification(stimulus(&netlist, 8), 10);
    flow.verified().unwrap();
    assert_eq!(flow.sync_run_cache_hits(), 1);
}
