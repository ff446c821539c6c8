//! Allocation gate for the construction layers: on the 10⁵-cell fabric of
//! `edif_scale.rs`, one run of lint, the combinational-cycle search, the
//! sequential graph, clustering and the latch conversion may allocate a
//! number of times that does not grow with the register count.
//!
//! The count is a work counter, exact and repeatable, not a wall time. A
//! counting global allocator tallies allocations per thread; this file
//! holds one test so its binary runs nothing else. Every layer runs once
//! before counting, so the name interner already holds every name and the
//! counted run measures the layers alone.

use desync_core::conversion::to_desynchronized_datapath;
use desync_core::{ClusterGraph, ClusteringStrategy};
use desync_lint::lint_design;
use desync_netlist::analysis::{find_combinational_cycle, SequentialGraph};
use desync_netlist::{CellKind, Netlist};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation made
/// by the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System` upholds the `GlobalAlloc` contract; the counter is a
// `const`-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const CHAINS: usize = 400;
const STAGES: usize = 125;

/// The fabric of `edif_scale.rs`: `CHAINS` chains of `STAGES` stages, each
/// stage one NAND (reading its chain and the shared `stir` input) and one
/// flip-flop named `c<chain>_r[<stage>]` — 10⁵ cells, one cluster per chain
/// under prefix clustering.
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
fn construction_allocations_do_not_grow_with_the_registers() {
    let netlist = fabric();
    assert_eq!(netlist.num_cells(), 2 * CHAINS * STAGES);
    // (layer, allocations, bound), one row per counted layer run.
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for round in 0..2 {
        let (report, lint) = counted(|| lint_design(&netlist));
        assert!(report.is_clean(), "{report}");
        let (cycle, search) = counted(|| find_combinational_cycle(&netlist));
        assert_eq!(cycle, None);
        let (seq, graph) = counted(|| SequentialGraph::build(&netlist));
        assert_eq!(seq.len(), CHAINS * STAGES);
        let mut layer_rows = vec![
            ("lint_design".to_string(), lint, 128),
            ("find_combinational_cycle".to_string(), search, 128),
            ("SequentialGraph::build".to_string(), graph, 128),
        ];
        for strategy in [
            ClusteringStrategy::ByNamePrefix,
            ClusteringStrategy::PerRegister,
        ] {
            let (clusters, clustering) = counted(|| ClusterGraph::build(&netlist, strategy));
            let per_clusters = 8 * clusters.len() as u64 + 64;
            let (design, latching) = counted(|| to_desynchronized_datapath(&netlist, &clusters));
            let design = design.expect("the fabric converts");
            layer_rows.push((
                format!("ClusterGraph::build ({strategy:?})"),
                clustering,
                per_clusters,
            ));
            layer_rows.push((
                format!("Latched stage ({strategy:?})"),
                latching,
                design.netlist.num_cells() as u64 + per_clusters,
            ));
        }
        // The first round interns every name; the second is the one counted.
        if round == 1 {
            rows = layer_rows;
        }
    }
    let table: String = rows
        .iter()
        .map(|(layer, count, bound)| format!("\n  {layer}: {count} allocations (bound {bound})"))
        .collect();
    println!("allocations per layer run:{table}");
    assert!(
        rows.iter().all(|&(_, count, bound)| count <= bound),
        "a construction layer allocates beyond its bound:{table}"
    );
}
