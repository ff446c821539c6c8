//! The netlist pass suite (`NL001`–`NL008`) and the flow-precondition pass
//! (`FL001`/`FL002`).
//!
//! Every pass is linear in the netlist size — O(V + E) over nets, cells and
//! pins — and every traversal iterates in id order, so the findings (and
//! their witnesses) are a pure function of the netlist: bit-identical
//! across runs, processes and thread counts.

use crate::diagnostic::{Diagnostic, LintCode, LintReport};
use desync_netlist::analysis::{find_combinational_cycle, CellTable};
use desync_netlist::{Netlist, PinRole};
use std::collections::VecDeque;

/// Runs the full netlist pass suite.
///
/// Passes run in code order (`NL001` first); within a pass, findings are
/// emitted in net/cell id order.
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    let num_nets = netlist.num_nets();

    // Shared tables, built once and indexed by net id: drivers and data
    // readers per net, each in cell-id order.
    let drivers = CellTable::build(num_nets, || {
        netlist.cells().map(|(id, cell)| (cell.output.index(), id))
    });
    let mut is_input = vec![false; num_nets];
    for &n in netlist.inputs() {
        is_input[n.index()] = true;
    }
    let mut is_output = vec![false; num_nets];
    for &n in netlist.outputs() {
        is_output[n.index()] = true;
    }
    // Data readers exclude clock/enable pins; those are checked by the
    // register-clocking pass (NL006) so a floating clock is reported once,
    // from the register's perspective.
    let data_readers = CellTable::build(num_nets, || {
        netlist.cells().flat_map(|(id, cell)| {
            cell.inputs
                .iter()
                .enumerate()
                .filter(move |&(pin, _)| cell.pin_role(pin) == PinRole::Data)
                .map(move |(_, net)| (net.index(), id))
        })
    });
    let mut any_reader = vec![false; num_nets];
    for (_, cell) in netlist.cells() {
        for &net in &cell.inputs {
            any_reader[net.index()] = true;
        }
    }

    // NL001: multi-driven nets. A primary input counts as a driver.
    for (id, net) in netlist.nets() {
        let cells = drivers.get(id.index());
        let total = cells.len() + usize::from(is_input[id.index()]);
        if total > 1 {
            let also_input = if is_input[id.index()] {
                " (including the primary input)"
            } else {
                ""
            };
            report.push(
                Diagnostic::new(
                    LintCode::MultiDrivenNet,
                    net.name,
                    format!("driven {total} times{also_input}"),
                )
                .with_witness(cells.iter().map(|&c| netlist.cell(c).name).collect()),
            );
        }
    }

    // NL002: floating reads — a net consumed by a data pin or exposed as a
    // primary output, with no cell driver and no primary-input backing.
    for (id, net) in netlist.nets() {
        let i = id.index();
        let readers = data_readers.get(i);
        if drivers.get(i).is_empty() && !is_input[i] && (!readers.is_empty() || is_output[i]) {
            let what = match (readers.len(), is_output[i]) {
                (0, _) => "exposed as a primary output but never driven".to_string(),
                (n, false) => format!("read by {n} cell input(s) but never driven"),
                (n, true) => {
                    format!("read by {n} cell input(s) and a primary output but never driven")
                }
            };
            report.push(
                Diagnostic::new(LintCode::FloatingInput, net.name, what)
                    .with_witness(readers.iter().map(|&c| netlist.cell(c).name).collect()),
            );
        }
    }

    // NL003 (warning): dead nets — nothing reads them, no output observes
    // them.
    for (id, net) in netlist.nets() {
        let i = id.index();
        if !any_reader[i] && !is_output[i] {
            let d = Diagnostic::new(
                LintCode::DeadNet,
                net.name,
                "never read by any cell or primary output".to_string(),
            );
            let witness = drivers.get(i).iter().map(|&c| netlist.cell(c).name);
            report.push(d.with_witness(witness.collect()));
        }
    }

    // NL004 (warning): unreachable cells — backward reachability from the
    // primary outputs over the driver relation.
    let mut net_seen = vec![false; num_nets];
    let mut cell_seen = vec![false; netlist.num_cells()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &out in netlist.outputs() {
        if !net_seen[out.index()] {
            net_seen[out.index()] = true;
            queue.push_back(out.index());
        }
    }
    while let Some(net) = queue.pop_front() {
        for &d in drivers.get(net) {
            if !cell_seen[d.index()] {
                cell_seen[d.index()] = true;
                for &input in &netlist.cell(d).inputs {
                    if !net_seen[input.index()] {
                        net_seen[input.index()] = true;
                        queue.push_back(input.index());
                    }
                }
            }
        }
    }
    for (id, cell) in netlist.cells() {
        if !cell_seen[id.index()] {
            report.push(Diagnostic::new(
                LintCode::UnreachableCell,
                cell.name,
                "no path from its output to any primary output".to_string(),
            ));
        }
    }

    // NL005: combinational cycle, with the canonical cycle as witness.
    if let Some(cycle) = find_combinational_cycle(netlist) {
        let names: Vec<_> = cycle.iter().map(|&c| netlist.cell(c).name).collect();
        report.push(
            Diagnostic::new(
                LintCode::CombinationalCycle,
                names[0],
                format!("combinational cycle through {} cells", cycle.len()),
            )
            .with_witness(names),
        );
    }

    // NL006: registers whose clock/enable net is undriven and not a
    // primary input.
    for (_, cell) in netlist.sequential_cells() {
        let Some(ctl) = cell.clock_net().or_else(|| cell.enable_net()) else {
            continue;
        };
        let i = ctl.index();
        if drivers.get(i).is_empty() && !is_input[i] {
            report.push(
                Diagnostic::new(
                    LintCode::UnclockedRegister,
                    cell.name,
                    format!(
                        "clock/enable net `{}` has no driver and is not a primary input",
                        netlist.net(ctl).name.as_str()
                    ),
                )
                .with_witness(vec![netlist.net(ctl).name]),
            );
        }
    }

    // NL007: multiple clock nets (the flow desynchronizes single-clock
    // designs).
    let clocks = netlist.clock_nets();
    if clocks.len() > 1 {
        report.push(
            Diagnostic::new(
                LintCode::MultipleClocks,
                netlist.name_symbol(),
                format!("flip-flops are clocked by {} distinct nets", clocks.len()),
            )
            .with_witness(clocks.iter().map(|&n| netlist.net(n).name).collect()),
        );
    }

    // NL008: primary-port sanity — duplicate port entries and nets declared
    // both input and output.
    let mut seen = vec![false; num_nets];
    for &n in netlist.inputs() {
        if seen[n.index()] {
            report.push(Diagnostic::new(
                LintCode::PortSanity,
                netlist.net(n).name,
                "listed more than once as a primary input".to_string(),
            ));
        }
        seen[n.index()] = true;
    }
    seen.iter_mut().for_each(|s| *s = false);
    for &n in netlist.outputs() {
        if seen[n.index()] {
            report.push(Diagnostic::new(
                LintCode::PortSanity,
                netlist.net(n).name,
                "listed more than once as a primary output".to_string(),
            ));
        }
        seen[n.index()] = true;
        if is_input[n.index()] {
            report.push(Diagnostic::new(
                LintCode::PortSanity,
                netlist.net(n).name,
                "declared both a primary input and a primary output".to_string(),
            ));
        }
    }

    report
}

/// The flow-precondition pass: certifies that a structurally sound netlist
/// is something the desynchronization flow can actually process.
///
/// `FL001` fires when there are no flip-flops (nothing to convert into
/// latch pairs); `FL002` when the design already contains level-sensitive
/// latches (the flow starts from a flip-flop-based synchronous circuit).
/// The multi-clock precondition is covered by `NL007`.
pub fn lint_flow_preconditions(netlist: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    if netlist.num_flip_flops() == 0 {
        report.push(Diagnostic::new(
            LintCode::NoRegisters,
            netlist.name_symbol(),
            "no flip-flops: the flow needs at least one register to desynchronize".to_string(),
        ));
    }
    if netlist.num_latches() > 0 {
        report.push(
            Diagnostic::new(
                LintCode::AlreadyLatchBased,
                netlist.name_symbol(),
                format!(
                    "{} level-sensitive latch(es) present: the flow expects a flip-flop design",
                    netlist.num_latches()
                ),
            )
            .with_witness(netlist.latches().map(|(_, c)| c.name).take(8).collect()),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellKind;

    /// A minimal clean design: clk -> dff -> inv -> output.
    fn clean() -> Netlist {
        let mut n = Netlist::new("clean");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let q = n.add_net("q");
        let y = n.add_output("y");
        n.add_dff("r0", a, clk, q).unwrap();
        n.add_gate("g0", CellKind::Not, &[q], y).unwrap();
        n
    }

    #[test]
    fn clean_design_is_clean() {
        let report = lint_netlist(&clean());
        assert!(report.is_clean(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(lint_flow_preconditions(&clean()).is_clean());
    }

    #[test]
    fn multi_driven_net_names_all_drivers() {
        let mut n = clean();
        let a = n.find_net("a").unwrap();
        let q = n.find_net("q").unwrap();
        n.add_gate("dup", CellKind::Buf, &[a], q).unwrap();
        let report = lint_netlist(&n);
        let d = report.find(LintCode::MultiDrivenNet).expect("NL001 fires");
        assert_eq!(d.subject.as_str(), "q");
        let names: Vec<_> = d.witness.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["r0", "dup"], "drivers in cell-id order");
        assert!(d.detail.contains("driven 2 times"), "{}", d.detail);
    }

    #[test]
    fn primary_input_counts_as_a_driver() {
        let mut n = clean();
        let a = n.find_net("a").unwrap();
        let clk = n.find_net("clk").unwrap();
        n.add_gate("drv", CellKind::Buf, &[clk], a).unwrap();
        let report = lint_netlist(&n);
        let d = report.find(LintCode::MultiDrivenNet).expect("NL001 fires");
        assert_eq!(d.subject.as_str(), "a");
        assert!(d.detail.contains("primary input"), "{}", d.detail);
    }

    #[test]
    fn floating_read_and_floating_output() {
        let mut n = clean();
        let ghost = n.add_net("ghost");
        let y2 = n.add_net("y2");
        n.add_gate("g1", CellKind::Buf, &[ghost], y2).unwrap();
        n.mark_output(y2);
        let report = lint_netlist(&n);
        let d = report.find(LintCode::FloatingInput).expect("NL002 fires");
        assert_eq!(d.subject.as_str(), "ghost");
        assert_eq!(d.witness.len(), 1);
        assert_eq!(d.witness[0].as_str(), "g1");

        let mut n = clean();
        let dangling = n.add_net("dangling");
        n.mark_output(dangling);
        let report = lint_netlist(&n);
        let d = report.find(LintCode::FloatingInput).expect("NL002 fires");
        assert_eq!(d.subject.as_str(), "dangling");
        assert!(d.detail.contains("primary output"), "{}", d.detail);
    }

    #[test]
    fn dead_net_and_unreachable_cell_warn_only() {
        let mut n = clean();
        let scratch = n.add_net("scratch");
        let a = n.find_net("a").unwrap();
        n.add_gate("island", CellKind::Buf, &[a], scratch).unwrap();
        let report = lint_netlist(&n);
        assert!(report.is_clean(), "dead logic is a warning, not an error");
        let dead = report.find(LintCode::DeadNet).expect("NL003 fires");
        assert_eq!(dead.subject.as_str(), "scratch");
        assert_eq!(dead.witness[0].as_str(), "island");
        let unreachable = report.find(LintCode::UnreachableCell).expect("NL004 fires");
        assert_eq!(unreachable.subject.as_str(), "island");
    }

    #[test]
    fn combinational_cycle_witness_is_canonical() {
        let mut n = clean();
        let u = n.add_net("u");
        let v = n.add_net("v");
        let a = n.find_net("a").unwrap();
        n.add_gate("la", CellKind::And, &[a, v], u).unwrap();
        n.add_gate("lb", CellKind::Buf, &[u], v).unwrap();
        let report = lint_netlist(&n);
        let d = report
            .find(LintCode::CombinationalCycle)
            .expect("NL005 fires");
        let names: Vec<_> = d.witness.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["la", "lb"], "cycle rotated to the minimum id");
        assert_eq!(d.subject.as_str(), "la");
        // Stable across repeated runs.
        assert_eq!(lint_netlist(&n), report);
    }

    #[test]
    fn undriven_clock_reports_the_register_not_the_net() {
        let mut n = Netlist::new("badclk");
        let a = n.add_input("a");
        let clk = n.add_net("clk_int");
        let q = n.add_output("q");
        n.add_dff("r0", a, clk, q).unwrap();
        let report = lint_netlist(&n);
        let d = report
            .find(LintCode::UnclockedRegister)
            .expect("NL006 fires");
        assert_eq!(d.subject.as_str(), "r0");
        assert_eq!(d.witness[0].as_str(), "clk_int");
        assert!(
            !report.has(LintCode::FloatingInput),
            "clock pins are NL006's job, not NL002's: {report}"
        );
    }

    #[test]
    fn two_clock_domains_fire_nl007() {
        let mut n = Netlist::new("twoclk");
        let c1 = n.add_input("c1");
        let c2 = n.add_input("c2");
        let a = n.add_input("a");
        let q1 = n.add_output("q1");
        let q2 = n.add_output("q2");
        n.add_dff("r1", a, c1, q1).unwrap();
        n.add_dff("r2", a, c2, q2).unwrap();
        let report = lint_netlist(&n);
        let d = report.find(LintCode::MultipleClocks).expect("NL007 fires");
        let names: Vec<_> = d.witness.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["c1", "c2"]);
    }

    #[test]
    fn net_that_is_both_input_and_output_fires_nl008() {
        let mut n = clean();
        let a = n.find_net("a").unwrap();
        n.mark_output(a);
        let report = lint_netlist(&n);
        let d = report.find(LintCode::PortSanity).expect("NL008 fires");
        assert_eq!(d.subject.as_str(), "a");
        assert!(
            report.is_clean(),
            "a feedthrough port is suspicious but handled by the flow"
        );
    }

    #[test]
    fn flow_preconditions() {
        let mut comb = Netlist::new("comb");
        let a = comb.add_input("a");
        let y = comb.add_output("y");
        comb.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let report = lint_flow_preconditions(&comb);
        assert!(report.has(LintCode::NoRegisters));
        assert!(!report.is_clean());

        let mut latched = Netlist::new("latched");
        let en = latched.add_input("en");
        let d = latched.add_input("d");
        let q = latched.add_output("q");
        latched.add_latch("l0", d, en, q, true).unwrap();
        let report = lint_flow_preconditions(&latched);
        assert!(report.has(LintCode::AlreadyLatchBased));
        assert!(
            report.has(LintCode::NoRegisters),
            "latches are not flip-flops"
        );
        let d = report.find(LintCode::AlreadyLatchBased).unwrap();
        assert_eq!(d.witness[0].as_str(), "l0");
    }
}
