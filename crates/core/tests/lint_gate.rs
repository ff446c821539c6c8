//! One gate into the flow: a netlist whose lint report is not clean is
//! rejected before any stage runs, at the same point and with the same
//! report, by every caller — a detached `DesyncFlow`, a flow attached to a
//! `DesyncEngine`, and `DesyncService` design batches and sweep points.

use desync_core::{
    DesyncEngine, DesyncError, DesyncFlow, DesyncOptions, DesyncService, ServiceRequest, Stage,
    SweepRequest,
};
use desync_lint::{lint_design, LintReport};
use desync_netlist::{from_edif, CellKind, CellLibrary, Netlist};
use desync_sim::VectorSource;
use std::sync::Arc;

fn fixture(name: &str) -> Netlist {
    let path = format!(
        "{}/../netlist/tests/data/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    from_edif(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// `a -> NOT -> y`: nothing to desynchronize.
fn register_free() -> Netlist {
    let mut n = Netlist::new("comb");
    let a = n.add_input("a");
    let y = n.add_output("y");
    n.add_gate("g", CellKind::Not, &[a], y).unwrap();
    n
}

/// A flip-flop fed through a level-sensitive latch.
fn latched() -> Netlist {
    let mut n = Netlist::new("lat");
    let clk = n.add_input("clk");
    let en = n.add_input("en");
    let d = n.add_input("d");
    let m = n.add_net("m");
    let q = n.add_output("q");
    n.add_latch("l0", d, en, m, true).unwrap();
    n.add_dff("r0", m, clk, q).unwrap();
    n
}

/// Two flip-flops on two clock nets.
fn two_clocks() -> Netlist {
    let mut n = Netlist::new("twoclk");
    let clk_a = n.add_input("clk_a");
    let clk_b = n.add_input("clk_b");
    let a = n.add_input("a");
    let q0 = n.add_net("q0");
    let q1 = n.add_output("q1");
    n.add_dff("r0", a, clk_a, q0).unwrap();
    n.add_dff("r1", q0, clk_b, q1).unwrap();
    n
}

/// `c0 = C(a, b) -> NOT -> r0`: sequential, but no register to cluster.
/// Before FL002 covered C-elements this netlist passed the lint, and
/// clustering panicked on it (`StagePanicked` for a service request).
fn c_element() -> Netlist {
    let mut n = Netlist::new("celem");
    let clk = n.add_input("clk");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_net("c");
    let w = n.add_net("w");
    let q = n.add_output("q");
    n.add_c_element("c0", &[a, b], c).unwrap();
    n.add_gate("g0", CellKind::Not, &[c], w).unwrap();
    n.add_dff("r0", w, clk, q).unwrap();
    n
}

/// The report inside a `LintRejected`, or a panic naming what came instead.
fn rejected<T: std::fmt::Debug>(what: &str, result: Result<T, DesyncError>) -> Arc<LintReport> {
    match result {
        Err(DesyncError::LintRejected(report)) => report,
        other => panic!("{what}: expected a lint rejection, got {other:?}"),
    }
}

fn assert_no_stage_ran(what: &str, flow: &DesyncFlow) {
    for stage in Stage::ALL {
        assert_eq!(flow.stage_runs(stage), 0, "{what}: {stage} ran");
        assert_eq!(flow.cache_hits(stage), 0, "{what}: {stage} was served");
    }
    assert_eq!(flow.computed_through(), None, "{what}");
}

/// Each input with the first error code the `desync_lint` CLI reports for
/// it: the CLI prints `lint_design`'s report, and CI's lint gate checks
/// NL001, NL002 and NL005 on the three fixtures.
#[test]
fn every_caller_rejects_bad_inputs_at_one_gate() {
    let cases = [
        (
            "lint_multi_driver.edif",
            fixture("lint_multi_driver.edif"),
            "NL001",
        ),
        (
            "lint_floating_input.edif",
            fixture("lint_floating_input.edif"),
            "NL002",
        ),
        (
            "lint_comb_loop.edif",
            fixture("lint_comb_loop.edif"),
            "NL005",
        ),
        ("register-free", register_free(), "FL001"),
        ("latch", latched(), "FL002"),
        ("two clocks", two_clocks(), "NL007"),
        ("C-element", c_element(), "FL002"),
    ];
    let library = CellLibrary::generic_90nm();
    let options = DesyncOptions::default();
    for (what, netlist, code) in &cases {
        let cli = lint_design(netlist);
        let first = cli.errors().next().expect("an error diagnostic");
        assert_eq!(first.code.code(), *code, "{what}: {cli}");

        let mut detached = DesyncFlow::new(netlist, &library, options).unwrap();
        let report = rejected(what, detached.design());
        assert_eq!(*report, cli, "{what}: detached flow");
        assert_no_stage_ran(what, &detached);

        let engine = DesyncEngine::with_workers(1);
        let mut attached = engine.flow(netlist, &library, options).unwrap();
        attached.set_verification(VectorSource::pseudo_random(netlist.inputs().to_vec(), 1), 4);
        let report = rejected(what, attached.verified());
        assert_eq!(*report, cli, "{what}: engine flow");
        assert_no_stage_ran(what, &attached);

        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let batch = service.run_batch(&[ServiceRequest::new(netlist, &library, options)]);
        let stimulus = VectorSource::pseudo_random(netlist.inputs().to_vec(), 1);
        let sweep =
            service.run_sweep(&[SweepRequest::new(netlist, &library, options, &stimulus, 4)]);
        for (kind, outcome) in [("run_batch", &batch.report), ("run_sweep", &sweep.report)] {
            assert_eq!(outcome.lint_rejections, 1, "{what}: {kind}");
            assert_eq!(
                outcome.store.total_misses(),
                0,
                "{what}: {kind} ran a stage"
            );
            assert_eq!(
                outcome.store.total_hits(),
                0,
                "{what}: {kind} was served a stage"
            );
        }
        let report = rejected(what, batch.results[0].clone());
        assert_eq!(*report, cli, "{what}: run_batch");
        let report = rejected(what, sweep.results[0].clone());
        assert_eq!(*report, cli, "{what}: run_sweep");
    }
}
