//! Correctness of the cross-flow artifact cache (`DesyncEngine`): an
//! engine-served flow must be indistinguishable — artifact for artifact —
//! from a fresh flow, across randomized option-change sequences, distinct
//! netlists and concurrent use.

use desync_circuits::LinearPipelineConfig;
use desync_core::{ClusteringStrategy, DesyncEngine, DesyncFlow, DesyncOptions, Protocol, Stage};
use desync_netlist::{CellLibrary, Netlist};
use proptest::prelude::*;

fn testbed() -> Netlist {
    LinearPipelineConfig::balanced(4, 6, 2)
        .generate()
        .expect("pipeline generation")
}

/// One option mutation per code, covering every invalidation depth: full
/// restart (clustering), timing re-run (margin), controller re-synthesis
/// (protocol/environment) and the identity.
fn mutate(options: DesyncOptions, code: usize) -> DesyncOptions {
    let protocols = Protocol::all();
    match code % 8 {
        0 => options.with_margin(0.05),
        1 => options.with_margin(0.25),
        2 => options.with_protocol(protocols[0]),
        3 => options.with_protocol(protocols[1 % protocols.len()]),
        4 => options.with_clustering(ClusteringStrategy::PerRegister),
        5 => options.with_clustering(ClusteringStrategy::ByNamePrefix),
        6 => options.with_environment(false),
        _ => options,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    // After every step of a random option-change sequence, the
    // engine-attached flow's design equals a from-scratch run with the same
    // options ("byte-equal" via deep `PartialEq` over every artifact), and
    // replaying the final options on a new flow is served entirely from the
    // cache without drifting.
    #[test]
    fn engine_cached_designs_match_fresh_flows(
        steps in proptest::collection::vec(0usize..8, 1..5),
    ) {
        let netlist = testbed();
        let library = CellLibrary::generic_90nm();
        let engine = DesyncEngine::with_workers(2);
        let mut flow = engine
            .flow(&netlist, &library, DesyncOptions::default())
            .expect("valid options");
        flow.design().expect("initial design");
        for &code in &steps {
            let options = mutate(*flow.options(), code);
            flow.set_options(options).expect("valid options");
            let cached = flow.design().expect("resumed design");
            let fresh = DesyncFlow::new(&netlist, &library, options).expect("valid options")
                .design()
                .expect("fresh design");
            prop_assert_eq!(cached, fresh);
        }
        // A new flow with the final options recomputes zero stages...
        let final_options = *flow.options();
        let mut replay = engine
            .flow(&netlist, &library, final_options)
            .expect("valid options");
        let replay_design = replay.design().expect("replayed design");
        for stage in [Stage::Clustered, Stage::Latched, Stage::Timed, Stage::Controlled] {
            prop_assert_eq!(replay.stage_runs(stage), 0);
            prop_assert_eq!(replay.cache_hits(stage), 1);
        }
        // ...and still produces the identical design.
        prop_assert_eq!(replay_design, flow.design().expect("design"));
    }
}

#[test]
fn distinct_netlists_never_collide_in_one_engine() {
    let library = CellLibrary::generic_90nm();
    let engine = DesyncEngine::with_workers(2);
    let mut netlists: Vec<Netlist> = [(2, 4, 1), (3, 4, 1), (2, 6, 1), (4, 4, 2), (2, 4, 2)]
        .into_iter()
        .map(|(stages, width, depth)| {
            LinearPipelineConfig::balanced(stages, width, depth)
                .generate()
                .expect("pipeline generation")
        })
        .collect();
    // A twin of the first design differing only in its module name: the
    // closest plausible near-collision.
    let mut twin = LinearPipelineConfig::balanced(2, 4, 1)
        .generate()
        .expect("pipeline generation");
    twin.set_name("twin");
    netlists.push(twin);

    for (i, a) in netlists.iter().enumerate() {
        for b in &netlists[i + 1..] {
            assert_ne!(a.structural_hash(), b.structural_hash());
        }
    }
    // Each design served through the shared engine equals its detached
    // computation — no cross-contamination between cache entries.
    for netlist in &netlists {
        let from_engine = engine
            .flow(netlist, &library, DesyncOptions::default())
            .expect("valid options")
            .design()
            .expect("engine design");
        let detached = DesyncFlow::new(netlist, &library, DesyncOptions::default())
            .expect("valid options")
            .design()
            .expect("detached design");
        assert_eq!(from_engine, detached);
    }
    assert_eq!(engine.report().netlists, netlists.len());
}

#[test]
fn engine_is_shared_safely_across_threads() {
    let netlist = testbed();
    let library = CellLibrary::generic_90nm();
    let engine = DesyncEngine::with_workers(2);
    let reference = DesyncFlow::new(&netlist, &library, DesyncOptions::default())
        .expect("valid options")
        .design()
        .expect("reference design");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let design = engine
                        .flow(&netlist, &library, DesyncOptions::default())
                        .expect("valid options")
                        .design()
                        .expect("concurrent design");
                    assert_eq!(design, reference);
                }
            });
        }
    });
    // Each thread's second and third flow run strictly after its first
    // published all four artifacts, so at least 4 threads x 2 flows x 4
    // stages lookups must have hit.
    assert!(engine.report().total_hits() >= 32, "{}", engine.report());
}

#[test]
fn designs_share_one_copy_of_the_stage_artifacts() {
    let netlist = testbed();
    let library = CellLibrary::generic_90nm();
    let engine = DesyncEngine::with_workers(1);
    let mut flow = engine
        .flow(&netlist, &library, DesyncOptions::default())
        .expect("valid options");
    let a = flow.design().expect("design");
    let b = flow.design().expect("design");
    assert!(std::ptr::eq(a.latch_netlist(), b.latch_netlist()));
    // A second flow on the same engine is served the stored artifacts
    // themselves, not copies of them.
    let served = engine
        .flow(&netlist, &library, DesyncOptions::default())
        .expect("valid options")
        .design()
        .expect("served design");
    assert!(std::ptr::eq(a.latch_netlist(), served.latch_netlist()));
    assert!(std::ptr::eq(a.clusters(), served.clusters()));
    assert!(std::ptr::eq(a.matched_delays(), served.matched_delays()));
    assert!(std::ptr::eq(
        a.overhead_netlist(),
        served.overhead_netlist()
    ));
    assert_eq!(a, served);
}

#[test]
fn interning_the_engines_own_netlist_keeps_its_identity() {
    let netlist = testbed();
    let library = CellLibrary::generic_90nm();
    let engine = DesyncEngine::with_workers(1);
    let interned = engine.intern_netlist(&netlist);
    // Handing the engine its own interned netlist returns that same `Arc`
    // and interns nothing new.
    let again = engine.intern_netlist(&interned);
    assert!(std::sync::Arc::ptr_eq(&interned, &again));
    assert_eq!(engine.report().netlists, 1);
    // An equal netlist at another address gets the same identity, and
    // flows over either are served one set of artifacts.
    let copy = netlist.clone();
    assert!(std::sync::Arc::ptr_eq(
        &interned,
        &engine.intern_netlist(&copy)
    ));
    assert_eq!(engine.report().netlists, 1);
    let design = |n: &Netlist| {
        engine
            .flow(n, &library, DesyncOptions::default())
            .expect("valid options")
            .design()
            .expect("design")
    };
    let (from_interned, from_copy) = (design(&interned), design(&copy));
    assert!(std::ptr::eq(
        from_interned.latch_netlist(),
        from_copy.latch_netlist()
    ));
    assert_eq!(engine.report().netlists, 1);
}
