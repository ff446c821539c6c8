//! Large-design smoke test for the EDIF frontend: a ≥100k-leaf-cell fabric
//! must serialize, re-parse, flatten and cluster in linear-ish time. This is
//! the regression gate for the interned-symbol hot paths (`net_index` /
//! `cell_index` keyed by `Symbol`, per-base duplicate-name counters) — with
//! string-keyed maps or quadratic name probing this test times out instead
//! of finishing in seconds. On the same fabric, work-counter gates pin the
//! matched-delay sizing walk to each source cluster's forward cone and the
//! control model's cycle time to a near-linear number of relaxation passes.

use desync_core::{ClusterGraph, ClusteringStrategy, DesyncFlow, DesyncOptions};
use desync_mg::timing::cycle_time_with_work;
use desync_netlist::edif::{from_edif, to_edif};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use desync_sta::{ConeArrivals, Sta, TimingConfig};
use std::time::Instant;

const CHAINS: usize = 400;
const STAGES: usize = 125;

/// A register fabric: `CHAINS` independent shift/logic chains of `STAGES`
/// stages, each stage one NAND and one flip-flop — 100k leaf cells total.
fn fabric() -> Netlist {
    let mut n = Netlist::new("fabric");
    let clk = n.add_input("clk");
    let stir = n.add_input("stir");
    for c in 0..CHAINS {
        let mut prev = n.add_input(format!("seed[{c}]"));
        for s in 0..STAGES {
            let w = n.add_net(format!("c{c}_w[{s}]"));
            let q = n.add_net(format!("c{c}_q[{s}]"));
            n.add_gate(format!("c{c}_g[{s}]"), CellKind::Nand, &[prev, stir], w)
                .unwrap();
            n.add_dff(format!("c{c}_r[{s}]"), w, clk, q).unwrap();
            prev = q;
        }
        n.mark_output(prev);
    }
    n
}

#[test]
fn hundred_thousand_cell_fabric_roundtrips_and_clusters() {
    let t0 = Instant::now();
    let original = fabric();
    assert!(
        original.num_cells() >= 100_000,
        "fabric must exercise the 1e5-cell scale, got {}",
        original.num_cells()
    );

    let text = to_edif(&original);
    let t_write = t0.elapsed();

    let t1 = Instant::now();
    let back = from_edif(&text).expect("generated EDIF re-parses");
    let t_parse = t1.elapsed();

    assert_eq!(back, original, "round-trip is exact at scale");
    assert_eq!(back.structural_hash(), original.structural_hash());

    let t2 = Instant::now();
    let clusters = ClusterGraph::build(&back, ClusteringStrategy::ByNamePrefix);
    let t_cluster = t2.elapsed();
    assert_eq!(clusters.len(), CHAINS, "one cluster per chain name prefix");
    assert!(clusters
        .clusters
        .iter()
        .all(|c| c.registers.len() == STAGES));

    // Work counters, not seconds: a walk from one chain's register outputs
    // visits only that chain's NANDs after its first stage, while `stir`
    // reaches every NAND of the fabric.
    let library = CellLibrary::generic_90nm();
    let sta = Sta::new(&back, &library, TimingConfig::default());
    let mut cone = ConeArrivals::default();
    let chain: Vec<_> = clusters.clusters[0]
        .registers
        .iter()
        .map(|&r| back.cell(r).output)
        .collect();
    sta.cone_arrival_from(&chain, &mut cone);
    assert_eq!(cone.cells_visited(), STAGES - 1);
    sta.cone_arrival_from(&[back.find_net("stir").unwrap()], &mut cone);
    assert_eq!(cone.cells_visited(), CHAINS * STAGES);

    // Loose wall-clock ceiling: linear-time paths finish this in seconds
    // (debug) / well under one second each (release); any reintroduced
    // quadratic name probing or string-keyed hot path blows straight
    // through it.
    let total = t0.elapsed();
    assert!(
        total.as_secs() < 240,
        "scale smoke took {total:?} (write {t_write:?}, parse+flatten {t_parse:?}, \
         cluster {t_cluster:?}) — a hot path regressed"
    );
}

/// The Controlled stage on the fabric (one controller pair per chain plus
/// the environment pair): its cycle time costs at most two Bellman-Ford
/// checks' worth of relaxation passes, where a bisection running every
/// check makes dozens.
#[test]
fn fabric_cycle_time_takes_near_linear_relaxation_work() {
    let netlist = fabric();
    let library = CellLibrary::generic_90nm();
    let options = DesyncOptions::default().with_clustering(ClusteringStrategy::ByNamePrefix);
    let mut flow = DesyncFlow::new(&netlist, &library, options).expect("valid options");
    let model = &flow.controlled().expect("controlled stage").model;
    let graph = model.graph();
    assert_eq!(
        (graph.num_transitions(), graph.num_places()),
        (4 * CHAINS + 4, 12 * CHAINS + 7)
    );
    let (cycle_time, work) = cycle_time_with_work(graph);
    assert!(
        work.relaxation_passes <= 2 * (graph.num_transitions() + 1),
        "{work:?}"
    );
    assert_eq!(cycle_time.to_bits(), model.cycle_time_ps().to_bits());
}
