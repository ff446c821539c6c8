//! Grouping of flip-flops into latch clusters and the cluster-level data-flow
//! graph.
//!
//! A *cluster* is a set of flip-flops that will share one pair of local
//! clock generators after desynchronization (all bits of one pipeline
//! register, for example). The [`ClusterGraph`] lifts the
//! register-to-register connectivity of the netlist
//! ([`desync_netlist::analysis::SequentialGraph`]) to the cluster level; it
//! is the structural skeleton from which the control marked graph
//! (paper Figure 2) is built.

use crate::options::ClusteringStrategy;
use desync_netlist::analysis::SequentialGraph;
use desync_netlist::{CellId, FxHashSet, Netlist};
use serde::{Deserialize, Serialize};

/// The phase of a latch in the two-phase master/slave decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Parity {
    /// Master latches: transparent while the original clock is low
    /// (the `M` latches of paper Figure 1(b)); initially *empty* (bubble).
    Even,
    /// Slave latches: transparent while the original clock is high; they
    /// hold the register state visible at the flip-flop output, so they are
    /// initially *full* (token).
    Odd,
}

impl Parity {
    /// The suffix appended to controller and enable-net names.
    pub fn suffix(self) -> &'static str {
        match self {
            Parity::Even => "m",
            Parity::Odd => "s",
        }
    }

    /// Whether a latch of this parity holds valid data in the initial state.
    pub fn initially_full(self) -> bool {
        matches!(self, Parity::Odd)
    }
}

/// A group of flip-flops sharing one local clock generator pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Cluster name (derived from the instance names of its registers).
    pub name: String,
    /// The flip-flops of the original netlist belonging to this cluster.
    pub registers: Vec<CellId>,
}

impl Cluster {
    /// Number of flip-flops (and therefore latch pairs) in the cluster.
    pub fn len(&self) -> usize {
        self.registers.len()
    }

    /// Whether the cluster is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.registers.is_empty()
    }
}

/// A directed edge between clusters: data flows from a register of `from`
/// through combinational logic into a register of `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterEdge {
    /// Index of the source cluster.
    pub from: usize,
    /// Index of the destination cluster.
    pub to: usize,
}

/// The cluster-level data-flow graph of a synchronous netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterGraph {
    /// All clusters.
    pub clusters: Vec<Cluster>,
    /// Deduplicated cluster-to-cluster edges (self-loops included: a
    /// register bank feeding itself, like a program counter, yields one).
    pub edges: Vec<ClusterEdge>,
    /// Whether each cluster's registers are (also) fed by primary inputs.
    pub input_fed: Vec<bool>,
    /// Whether each cluster's registers reach a primary output
    /// combinationally.
    pub output_feeding: Vec<bool>,
}

/// Derives the cluster name of a register instance name: everything before
/// the final `[index]` suffix, or the whole name when there is none.
pub fn cluster_name_of(instance: &str) -> &str {
    match instance.rfind('[') {
        Some(pos) if instance.ends_with(']') => &instance[..pos],
        _ => instance,
    }
}

impl ClusterGraph {
    /// Builds the cluster graph of `netlist` under the given strategy.
    ///
    /// Only D flip-flops are clustered (the input netlist of the flow is a
    /// pure flip-flop design); the per-register connectivity comes from
    /// [`SequentialGraph::build`]. Clusters are ordered by name, and each
    /// cluster's registers by cell id.
    pub fn build(netlist: &Netlist, strategy: ClusteringStrategy) -> Self {
        let seq = SequentialGraph::build(netlist);
        // Each register's cluster key, a slice of its interned name, beside
        // its id: sorting the pairs orders the clusters by key and keeps
        // each cluster's registers in id order.
        let mut keyed: Vec<(&'static str, CellId)> = seq
            .registers
            .iter()
            .map(|&reg| {
                let name = netlist.cell(reg).name.as_str();
                let key = match strategy {
                    ClusteringStrategy::PerRegister => name,
                    ClusteringStrategy::ByNamePrefix => cluster_name_of(name),
                };
                (key, reg)
            })
            .collect();
        keyed.sort_unstable();
        let mut clusters = Vec::new();
        // Cluster index per cell id.
        let mut index_of = vec![None; netlist.num_cells()];
        for group in keyed.chunk_by(|a, b| a.0 == b.0) {
            for &(_, reg) in group {
                index_of[reg.index()] = Some(clusters.len());
            }
            clusters.push(Cluster {
                name: group[0].0.to_string(),
                registers: group.iter().map(|&(_, reg)| reg).collect(),
            });
        }

        let cluster_of = |reg: CellId| -> usize {
            index_of[reg.index()].expect("sequential cell is a clustered register")
        };

        // First-seen order, deduplicated through a set beside the list.
        let mut edges = Vec::new();
        let mut seen = FxHashSet::default();
        for e in &seq.edges {
            let edge = ClusterEdge {
                from: cluster_of(e.from),
                to: cluster_of(e.to),
            };
            if seen.insert(edge) {
                edges.push(edge);
            }
        }
        let mut input_fed = vec![false; clusters.len()];
        for &reg in &seq.fed_by_inputs {
            input_fed[cluster_of(reg)] = true;
        }
        let mut output_feeding = vec![false; clusters.len()];
        for &reg in &seq.feeding_outputs {
            output_feeding[cluster_of(reg)] = true;
        }
        Self {
            clusters,
            edges,
            input_fed,
            output_feeding,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The index of the cluster containing `register`, if any.
    pub fn cluster_of(&self, register: CellId) -> Option<usize> {
        self.clusters
            .iter()
            .position(|c| c.registers.contains(&register))
    }

    /// Indices of clusters feeding cluster `idx` (excluding itself).
    pub fn predecessors(&self, idx: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.to == idx && e.from != idx)
            .map(|e| e.from)
            .collect()
    }

    /// Indices of clusters fed by cluster `idx` (excluding itself).
    pub fn successors(&self, idx: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.from == idx && e.to != idx)
            .map(|e| e.to)
            .collect()
    }

    /// Whether cluster `idx` has a self-loop (feeds itself through
    /// combinational logic, like a counter or a program counter).
    pub fn has_self_loop(&self, idx: usize) -> bool {
        self.edges.iter().any(|e| e.from == idx && e.to == idx)
    }

    /// Total number of registers across all clusters.
    pub fn num_registers(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }
}

impl crate::store::Weigh for ClusterGraph {
    /// Weight: one unit per cluster node, grouped register and edge.
    fn weight(&self) -> usize {
        self.clusters.len() + self.num_registers() + self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellKind;

    /// Two 2-bit pipeline registers `stage0_ff[0..1]` -> `stage1_ff[0..1]`
    /// plus a self-looping counter bit `count_ff`.
    fn sample() -> Netlist {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let a0 = n.add_input("a0");
        let a1 = n.add_input("a1");
        let q00 = n.add_net("q00");
        let q01 = n.add_net("q01");
        let w0 = n.add_net("w0");
        let w1 = n.add_net("w1");
        let q10 = n.add_output("q10");
        let q11 = n.add_output("q11");
        n.add_dff("stage0_ff[0]", a0, clk, q00).unwrap();
        n.add_dff("stage0_ff[1]", a1, clk, q01).unwrap();
        n.add_gate("g0", CellKind::Not, &[q00], w0).unwrap();
        n.add_gate("g1", CellKind::Not, &[q01], w1).unwrap();
        n.add_dff("stage1_ff[0]", w0, clk, q10).unwrap();
        n.add_dff("stage1_ff[1]", w1, clk, q11).unwrap();
        // Self-looping counter bit.
        let cq = n.add_net("cq");
        let cd = n.add_net("cd");
        n.add_gate("cinv", CellKind::Not, &[cq], cd).unwrap();
        n.add_dff("count_ff", cd, clk, cq).unwrap();
        n.mark_output(cq);
        n
    }

    #[test]
    fn cluster_name_derivation() {
        assert_eq!(cluster_name_of("idex_a_ff[3]"), "idex_a_ff");
        assert_eq!(cluster_name_of("r0"), "r0");
        assert_eq!(cluster_name_of("weird[3]x"), "weird[3]x");
    }

    #[test]
    fn prefix_clustering_groups_bits() {
        let n = sample();
        let g = ClusterGraph::build(&n, ClusteringStrategy::ByNamePrefix);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.num_registers(), 5);
        let names: Vec<&str> = g.clusters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["count_ff", "stage0_ff", "stage1_ff"]);
        let s0 = names.iter().position(|&n| n == "stage0_ff").unwrap();
        let s1 = names.iter().position(|&n| n == "stage1_ff").unwrap();
        let cnt = names.iter().position(|&n| n == "count_ff").unwrap();
        assert!(g.edges.contains(&ClusterEdge { from: s0, to: s1 }));
        assert!(g.has_self_loop(cnt));
        assert!(!g.has_self_loop(s0));
        assert_eq!(g.successors(s0), vec![s1]);
        assert_eq!(g.predecessors(s1), vec![s0]);
        assert!(g.input_fed[s0]);
        assert!(!g.input_fed[s1]);
        assert!(g.output_feeding[s1]);
        assert!(g.output_feeding[cnt]);
    }

    #[test]
    fn per_register_clustering_is_finer() {
        let n = sample();
        let g = ClusterGraph::build(&n, ClusteringStrategy::PerRegister);
        assert_eq!(g.len(), 5);
        assert!(g.clusters.iter().all(|c| c.len() == 1 && !c.is_empty()));
        // Each stage-1 bit has exactly one predecessor cluster.
        let s1_0 = g
            .clusters
            .iter()
            .position(|c| c.name == "stage1_ff[0]")
            .unwrap();
        assert_eq!(g.predecessors(s1_0).len(), 1);
    }

    #[test]
    fn cluster_of_lookup() {
        let n = sample();
        let g = ClusterGraph::build(&n, ClusteringStrategy::ByNamePrefix);
        let reg = n.find_cell("stage0_ff[1]").unwrap();
        let idx = g.cluster_of(reg).unwrap();
        assert_eq!(g.clusters[idx].name, "stage0_ff");
        assert_eq!(g.cluster_of(CellId(999)), None);
    }

    #[test]
    fn parity_helpers() {
        assert_eq!(Parity::Even.suffix(), "m");
        assert_eq!(Parity::Odd.suffix(), "s");
        assert!(Parity::Odd.initially_full());
        assert!(!Parity::Even.initially_full());
    }

    #[test]
    fn netlist_without_registers_gives_empty_graph() {
        let mut n = Netlist::new("comb");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let g = ClusterGraph::build(&n, ClusteringStrategy::ByNamePrefix);
        assert!(g.is_empty());
        assert_eq!(g.num_registers(), 0);
    }
}
