//! Step 1 of the flow: conversion of the flip-flop based netlist into a
//! latch-based one (paper Figure 1(a) → 1(b)).
//!
//! Every rising-edge D flip-flop is decomposed into a *master* latch
//! followed by a *slave* latch. Two conversions are provided:
//!
//! * [`to_latch_synchronous`] — the intermediate latch-based **synchronous**
//!   circuit: the master is transparent while the clock is low, the slave
//!   while it is high, both still driven by the global clock. This circuit
//!   is cycle-accurate equivalent to the original and is only used as a
//!   stepping stone / demonstration (Figure 1(b)).
//! * [`to_desynchronized_datapath`] — the **desynchronized** datapath: both
//!   latches become transparent-high and their enables are exported as
//!   primary inputs, one pair per cluster, to be driven by the local
//!   handshake controllers (or, in simulation, by the timed marked-graph
//!   model of the control network).

use crate::cluster::ClusterGraph;
use crate::error::DesyncError;
use desync_netlist::{CellId, NetId, Netlist, Symbol};
use serde::{Deserialize, Serialize};

/// The master/slave latch pair created from one flip-flop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatchPair {
    /// The original flip-flop (cell id in the *original* netlist).
    pub register: CellId,
    /// Instance name of the original flip-flop, as the interned symbol the
    /// source netlist holds ([`Symbol::as_str`] gives the string).
    pub register_name: Symbol,
    /// Instance name of the master (even) latch in the converted netlist:
    /// `<register_name>__m`, interned.
    pub master: Symbol,
    /// Instance name of the slave (odd) latch in the converted netlist:
    /// `<register_name>__s`, interned.
    pub slave: Symbol,
    /// Index of the cluster the pair belongs to.
    pub cluster: usize,
}

/// The result of converting a flip-flop netlist into a desynchronized
/// latch-based datapath.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatchDesign {
    /// The latch-based datapath. Latch enables are primary inputs named
    /// `en_<cluster>_m` / `en_<cluster>_s`.
    pub netlist: Netlist,
    /// One entry per original flip-flop.
    pub pairs: Vec<LatchPair>,
    /// Per cluster: `(cluster_name, master_enable_net, slave_enable_net)`,
    /// indexed like [`ClusterGraph::clusters`].
    pub cluster_enables: Vec<(String, String, String)>,
}

impl LatchDesign {
    /// The enable net ids of cluster `idx` as `(master, slave)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn enable_nets(&self, idx: usize) -> (NetId, NetId) {
        let (_, m, s) = &self.cluster_enables[idx];
        (
            self.netlist.find_net(m).expect("master enable net exists"),
            self.netlist.find_net(s).expect("slave enable net exists"),
        )
    }

    /// The master latch instance name corresponding to an original
    /// flip-flop instance name, if that flip-flop was converted.
    pub fn master_of(&self, register_name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|p| p.register_name == register_name)
            .map(|p| p.master.as_str())
    }

    /// Number of latch pairs (original flip-flops).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }
}

impl crate::store::Weigh for LatchDesign {
    /// Weight: the dominant retained memory is the converted netlist (cells
    /// and nets), plus one unit per latch pair and cluster-enable record.
    fn weight(&self) -> usize {
        self.netlist.num_cells()
            + self.netlist.num_nets()
            + self.pairs.len()
            + self.cluster_enables.len()
    }
}

/// Copies nets (with identical ids), primary inputs (optionally without the
/// clock) and outputs, plus all combinational cells of `source` into a new
/// netlist.
fn copy_combinational_skeleton(source: &Netlist, name: &str, skip_input: Option<NetId>) -> Netlist {
    let mut out = source.with_nets_of(name);
    for &input in source.inputs() {
        if Some(input) != skip_input {
            out.mark_input(input);
        }
    }
    for &output in source.outputs() {
        out.mark_output(output);
    }
    for (_, cell) in source.cells() {
        if cell.kind.is_combinational() {
            out.add_cell(cell.clone())
                .expect("copying a valid cell cannot fail");
        }
    }
    out
}

/// Interns the concatenation of `parts`, written into the reused buffer
/// `buf` instead of a fresh `String`.
fn intern_joined(buf: &mut String, parts: &[&str]) -> Symbol {
    buf.clear();
    parts.iter().for_each(|part| buf.push_str(part));
    Symbol::intern(buf)
}

/// The interned names of the latch pair replacing flip-flop `register`:
/// its middle net `<register>__mq`, master `<register>__m` and slave
/// `<register>__s`.
fn pair_names(register: Symbol, buf: &mut String) -> (Symbol, Symbol, Symbol) {
    let base = register.as_str();
    (
        intern_joined(buf, &[base, "__mq"]),
        intern_joined(buf, &[base, "__m"]),
        intern_joined(buf, &[base, "__s"]),
    )
}

/// Converts a flip-flop netlist into the latch-based **synchronous** circuit
/// of paper Figure 1(b): master latches transparent when the clock is low,
/// slave latches transparent when it is high, both driven by the original
/// clock net.
///
/// # Errors
///
/// * [`DesyncError::NoRegisters`] if the netlist has no flip-flops.
/// * [`DesyncError::AlreadyLatchBased`] if it already contains latches.
/// * [`DesyncError::Netlist`] if the input is structurally invalid.
pub fn to_latch_synchronous(source: &Netlist) -> Result<Netlist, DesyncError> {
    check_input(source)?;
    let clk = source.single_clock().map_err(DesyncError::Netlist)?;
    let mut out = copy_combinational_skeleton(source, &format!("{}_latched", source.name()), None);
    let mut buf = String::new();
    for (_, cell) in source.flip_flops() {
        let (mid, master, slave) = pair_names(cell.name, &mut buf);
        let mid = out.add_net(mid);
        out.add_latch(master, cell.inputs[0], clk, mid, false)?;
        out.add_latch(slave, mid, clk, cell.output, true)?;
    }
    Ok(out)
}

/// Converts a flip-flop netlist into the **desynchronized** latch-based
/// datapath: both latches are transparent-high and their enables are primary
/// inputs, one `(master, slave)` pair per cluster of `clusters`.
///
/// The global clock input disappears from the datapath — this is precisely
/// the point of the method.
///
/// # Errors
///
/// Same conditions as [`to_latch_synchronous`].
pub fn to_desynchronized_datapath(
    source: &Netlist,
    clusters: &ClusterGraph,
) -> Result<LatchDesign, DesyncError> {
    check_input(source)?;
    let clk = source.single_clock().map_err(DesyncError::Netlist)?;
    let mut netlist =
        copy_combinational_skeleton(source, &format!("{}_desync", source.name()), Some(clk));

    // One enable-net pair per cluster, exported as primary inputs.
    let mut buf = String::new();
    let mut cluster_enables = Vec::with_capacity(clusters.len());
    let mut enables: Vec<(NetId, NetId)> = Vec::with_capacity(clusters.len());
    for cluster in &clusters.clusters {
        let m = netlist.add_input(intern_joined(&mut buf, &["en_", &cluster.name, "_m"]));
        let s = netlist.add_input(intern_joined(&mut buf, &["en_", &cluster.name, "_s"]));
        cluster_enables.push((
            cluster.name.clone(),
            netlist.net(m).name.to_string(),
            netlist.net(s).name.to_string(),
        ));
        enables.push((m, s));
    }
    // Cluster index per cell id of the source (a graph of another netlist
    // may name ids past its end; those cover none of its flip-flops).
    let mut cluster_of = vec![None; source.num_cells()];
    for (i, cluster) in clusters.clusters.iter().enumerate() {
        for &r in &cluster.registers {
            if let Some(slot) = cluster_of.get_mut(r.index()) {
                *slot = Some(i);
            }
        }
    }

    let mut pairs = Vec::with_capacity(source.num_flip_flops());
    for (id, cell) in source.flip_flops() {
        let Some(cluster) = cluster_of[id.index()] else {
            return Err(DesyncError::ModelCheck(format!(
                "flip-flop `{}` is not covered by any cluster",
                cell.name
            )));
        };
        let (en_m, en_s) = enables[cluster];
        let (mid, master, slave) = pair_names(cell.name, &mut buf);
        let mid = netlist.add_net(mid);
        netlist.add_latch(master, cell.inputs[0], en_m, mid, true)?;
        netlist.add_latch(slave, mid, en_s, cell.output, true)?;
        pairs.push(LatchPair {
            register: id,
            register_name: cell.name,
            master,
            slave,
            cluster,
        });
    }
    Ok(LatchDesign {
        netlist,
        pairs,
        cluster_enables,
    })
}

fn check_input(source: &Netlist) -> Result<(), DesyncError> {
    source.validate().map_err(DesyncError::Netlist)?;
    if source.num_latches() > 0 {
        return Err(DesyncError::AlreadyLatchBased);
    }
    if source.num_flip_flops() == 0 {
        return Err(DesyncError::NoRegisters);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ClusteringStrategy;
    use desync_netlist::CellKind;

    fn pipeline2() -> Netlist {
        let mut n = Netlist::new("pipe");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let q0 = n.add_net("q0");
        let w = n.add_net("w");
        let q1 = n.add_output("q1");
        n.add_dff("r0", a, clk, q0).unwrap();
        n.add_gate("g0", CellKind::Not, &[q0], w).unwrap();
        n.add_dff("r1", w, clk, q1).unwrap();
        n
    }

    #[test]
    fn latch_synchronous_doubles_registers() {
        let n = pipeline2();
        let latched = to_latch_synchronous(&n).unwrap();
        assert!(latched.validate().is_ok());
        assert_eq!(latched.num_latches(), 2 * n.num_flip_flops());
        assert_eq!(latched.num_flip_flops(), 0);
        assert_eq!(latched.num_combinational(), n.num_combinational());
        // Master is transparent-low, slave transparent-high (Figure 1(b)).
        let m = latched.find_cell("r0__m").unwrap();
        let s = latched.find_cell("r0__s").unwrap();
        assert_eq!(latched.cell(m).kind, CellKind::LatchLow);
        assert_eq!(latched.cell(s).kind, CellKind::LatchHigh);
        // Both still clocked by the original clock net.
        let clk = latched.find_net("clk").unwrap();
        assert_eq!(latched.cell(m).enable_net(), Some(clk));
        assert_eq!(latched.cell(s).enable_net(), Some(clk));
    }

    #[test]
    fn desynchronized_datapath_has_no_clock_and_exports_enables() {
        let n = pipeline2();
        let clusters = ClusterGraph::build(&n, ClusteringStrategy::PerRegister);
        let design = to_desynchronized_datapath(&n, &clusters).unwrap();
        assert!(design.netlist.validate().is_ok());
        assert_eq!(design.num_pairs(), 2);
        assert_eq!(design.netlist.num_latches(), 4);
        // The clock net is no longer a primary input.
        let clk = design.netlist.find_net("clk").unwrap();
        assert!(!design.netlist.inputs().contains(&clk));
        // Two enable inputs per cluster.
        assert_eq!(design.cluster_enables.len(), 2);
        let (m, s) = design.enable_nets(0);
        assert!(design.netlist.inputs().contains(&m));
        assert!(design.netlist.inputs().contains(&s));
        // Both latches are transparent-high in the desynchronized datapath.
        let master = design.netlist.find_cell("r0__m").unwrap();
        assert_eq!(design.netlist.cell(master).kind, CellKind::LatchHigh);
        assert_eq!(design.master_of("r0"), Some("r0__m"));
        assert_eq!(design.master_of("nope"), None);
    }

    #[test]
    fn original_net_ids_are_preserved() {
        let n = pipeline2();
        let clusters = ClusterGraph::build(&n, ClusteringStrategy::ByNamePrefix);
        let design = to_desynchronized_datapath(&n, &clusters).unwrap();
        for (id, net) in n.nets() {
            assert_eq!(design.netlist.net(id).name, net.name);
        }
    }

    #[test]
    fn conversion_rejects_bad_inputs() {
        // No registers.
        let mut comb = Netlist::new("comb");
        let a = comb.add_input("a");
        let y = comb.add_output("y");
        comb.add_gate("g", CellKind::Not, &[a], y).unwrap();
        assert_eq!(
            to_latch_synchronous(&comb).unwrap_err(),
            DesyncError::NoRegisters
        );
        // Already latch based.
        let mut lat = Netlist::new("lat");
        let en = lat.add_input("en");
        let d = lat.add_input("d");
        let q = lat.add_output("q");
        lat.add_latch("l", d, en, q, true).unwrap();
        assert_eq!(
            to_latch_synchronous(&lat).unwrap_err(),
            DesyncError::AlreadyLatchBased
        );
        // Structurally invalid netlist.
        let mut bad = Netlist::new("bad");
        let x = bad.add_net("x");
        let clk = bad.add_input("clk");
        let q2 = bad.add_output("q2");
        bad.add_dff("r", x, clk, q2).unwrap();
        assert!(matches!(
            to_latch_synchronous(&bad).unwrap_err(),
            DesyncError::Netlist(_)
        ));
    }

    /// A cluster graph built from another netlist may name cell ids past
    /// the end of this one: they cover nothing, so the uncovered
    /// flip-flops are an error rather than an out-of-range panic.
    #[test]
    fn clusters_of_a_larger_netlist_cover_nothing() {
        let mut big = Netlist::new("big");
        let clk = big.add_input("clk");
        let mut net = big.add_input("a");
        for i in 0..4 {
            let y = big.add_net(format!("y{i}"));
            big.add_gate(format!("g{i}"), CellKind::Not, &[net], y)
                .unwrap();
            net = y;
        }
        let q = big.add_output("q");
        big.add_dff("late", net, clk, q).unwrap();
        let clusters = ClusterGraph::build(&big, ClusteringStrategy::PerRegister);
        assert_eq!(clusters.clusters[0].registers, vec![CellId(4)]);
        assert!(matches!(
            to_desynchronized_datapath(&pipeline2(), &clusters),
            Err(DesyncError::ModelCheck(_))
        ));
    }

    #[test]
    fn prefix_clustering_shares_enables() {
        let mut n = Netlist::new("bank");
        let clk = n.add_input("clk");
        let a0 = n.add_input("a0");
        let a1 = n.add_input("a1");
        let q0 = n.add_output("q0");
        let q1 = n.add_output("q1");
        n.add_dff("bank_ff[0]", a0, clk, q0).unwrap();
        n.add_dff("bank_ff[1]", a1, clk, q1).unwrap();
        let clusters = ClusterGraph::build(&n, ClusteringStrategy::ByNamePrefix);
        assert_eq!(clusters.len(), 1);
        let design = to_desynchronized_datapath(&n, &clusters).unwrap();
        // Both master latches share the same enable net.
        let m0 = design.netlist.find_cell("bank_ff[0]__m").unwrap();
        let m1 = design.netlist.find_cell("bank_ff[1]__m").unwrap();
        assert_eq!(
            design.netlist.cell(m0).enable_net(),
            design.netlist.cell(m1).enable_net()
        );
    }
}
