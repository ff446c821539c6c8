//! Static verification of netlists and desynchronization control networks.
//!
//! The paper's central claim is that desynchronization correctness is
//! provable *statically*: the control network is a marked graph whose
//! liveness and safety follow from structural theorems, not from
//! simulation. This crate is the toolkit's static layer — a unified pass
//! framework producing typed [`Diagnostic`]s with stable codes, severity
//! levels and concrete *witnesses* (the exact net, cell, cycle or component
//! that proves the verdict), rendered for humans via `Display` and for
//! machines via [`LintReport::to_json`] (schema `desync-lint/1`).
//!
//! Every pass is linear — O(V + E) over nets, cells and pins, or places and
//! transitions — and every traversal runs in id order, so verdicts and
//! witnesses are bit-identical across runs, processes and thread counts.
//! That makes reports safe to cache by [`structural
//! hash`](desync_netlist::Netlist::structural_hash) and to compare with
//! `==`.
//!
//! # Pass catalog
//!
//! **Netlist suite** ([`lint_netlist`]):
//!
//! | Code | Severity | Checks | Witness |
//! |-------|---------|--------|---------|
//! | NL001 | error | net with more than one driver | driver cells |
//! | NL002 | error | net read / exposed as output but never driven | reading cells |
//! | NL003 | warning | net never read by a cell or output | driving cell |
//! | NL004 | warning | cell that cannot reach any primary output | — |
//! | NL005 | error | combinational cycle | canonical cell cycle |
//! | NL006 | error | register clock/enable undriven | the clock net |
//! | NL007 | error | more than one clock net | the clock nets |
//! | NL008 | warning | duplicate / input-and-output ports | — |
//!
//! **Flow preconditions** ([`lint_flow_preconditions`]): FL001 (error, no
//! flip-flops to desynchronize), FL002 (error, design already latch-based).
//!
//! **Control-network suite** ([`lint_marked_graph`]): MG001 (error,
//! token-free cycle ⇒ not live), MG002 (error, cycle carrying more than one
//! token ⇒ not safe), MG003 (error, strong-connectivity component report).
//! These wrap the witness searches of [`desync_mg::analysis`]; `is_live`
//! and, on live graphs, `is_safe` are their boolean projections, so the
//! passes report the same verdicts as checkable cycles.
//!
//! # Example
//!
//! ```
//! use desync_lint::{lint_design, LintCode};
//! use desync_netlist::{CellKind, Netlist};
//!
//! let mut n = Netlist::new("bad");
//! let clk = n.add_input("clk");
//! let a = n.add_input("a");
//! let q = n.add_net("q");
//! let y = n.add_output("y");
//! n.add_dff("r0", a, clk, q).unwrap();
//! n.add_gate("g0", CellKind::Not, &[q], y).unwrap();
//! n.add_gate("g1", CellKind::Buf, &[a], q).unwrap(); // second driver of q
//!
//! let report = lint_design(&n);
//! assert!(!report.is_clean());
//! let d = report.find(LintCode::MultiDrivenNet).unwrap();
//! assert_eq!(d.subject.as_str(), "q");
//! assert!(report.to_json().starts_with("{\"schema\":\"desync-lint/1\""));
//! ```
//!
//! Machine-readable output for the report above:
//!
//! ```json
//! {"schema":"desync-lint/1","clean":false,"errors":1,"warnings":0,
//!  "diagnostics":[{"code":"NL001","severity":"error","subject":"q",
//!   "detail":"driven 2 times","witness":["r0","g1"]}]}
//! ```
//!
//! The `desync_lint` binary lints `.edif`/`.edf`/`.v` files from the
//! command line (`--json` for machine output) and exits nonzero when any
//! error-severity diagnostic fires — CI runs it over the checked-in
//! examples and the malformed-netlist corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostic;
pub mod mg_passes;
pub mod netlist_passes;

pub use diagnostic::{Diagnostic, LintCode, LintReport, Severity};
pub use mg_passes::lint_marked_graph;
pub use netlist_passes::{lint_flow_preconditions, lint_netlist};

use desync_netlist::Netlist;

/// Runs every pass that applies before the flow touches a design: the full
/// netlist suite plus the flow preconditions.
///
/// This is the report the flow's `lint` pre-flight stage caches and the
/// service's admission control consults; [`LintReport::is_clean`] decides
/// whether the design is admitted.
pub fn lint_design(netlist: &Netlist) -> LintReport {
    let mut report = lint_netlist(netlist);
    report.merge(lint_flow_preconditions(netlist));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellKind;

    #[test]
    fn lint_design_merges_both_suites() {
        // A combinational-only netlist with a dead net: NL003 (warning)
        // from the netlist suite, FL001 (error) from the preconditions.
        let mut n = Netlist::new("comb");
        let a = n.add_input("a");
        let y = n.add_output("y");
        let dead = n.add_net("dead");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        n.add_gate("gd", CellKind::Not, &[a], dead).unwrap();
        let report = lint_design(&n);
        assert!(report.has(LintCode::DeadNet));
        assert!(report.has(LintCode::NoRegisters));
        assert!(!report.is_clean());
        assert_eq!(report.num_errors(), 1);
    }
}
