//! Step 3 of the flow: the circuit-level control model.
//!
//! Every cluster gets two local clock generators (one for its master/even
//! latches, one for its slave/odd latches). For every pair of adjacent
//! latch controllers the synchronization pattern of the chosen
//! [`Protocol`] is instantiated (paper Figure 4), and the
//! composition of all patterns plus the local controller cycles forms the
//! timed marked graph of paper Figure 2. Its liveness and safeness certify
//! the correctness of the control network; its maximum cycle ratio is the
//! cycle time of the desynchronized circuit.

use crate::cluster::{ClusterGraph, Parity};
use crate::controller::{initial_tokens, PairEvent, Protocol};
use desync_mg::timing::{simulate_timed, TimedTrace};
use desync_mg::{MarkedGraph, TransitionId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Delay parameters of the control model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelDelays {
    /// Request/acknowledge propagation delay through one controller, ps.
    pub controller_ps: f64,
    /// Latch data-to-output delay, ps.
    pub latch_ps: f64,
    /// Minimum transparency pulse width of a latch enable, ps.
    pub pulse_width_ps: f64,
}

impl Default for ModelDelays {
    fn default() -> Self {
        Self {
            controller_ps: 120.0,
            latch_ps: 70.0,
            pulse_width_ps: 190.0,
        }
    }
}

/// Name used for the virtual environment controller pair, unless a cluster
/// already has it; the pair then takes the first of `env_1`, `env_2`, …
/// that no cluster has, so every transition label stays distinct.
pub const ENVIRONMENT_NAME: &str = "env";

/// Forward-delay budgets of the environment arcs: how long data launched by
/// the environment needs to reach each input-fed cluster, and how long each
/// output-feeding cluster's results need to reach the environment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnvironmentSpec {
    /// Per input-fed cluster: worst-case delay from the primary inputs to
    /// the cluster's register data pins (plus margin), picoseconds.
    pub input_delay_ps: HashMap<usize, f64>,
    /// Per output-feeding cluster: worst-case delay from the cluster's
    /// register outputs to the primary outputs (plus margin), picoseconds.
    pub output_delay_ps: HashMap<usize, f64>,
}

/// One local clock generator (controller) of the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerRef {
    /// Cluster index in the originating [`ClusterGraph`].
    pub cluster: usize,
    /// Cluster name.
    pub cluster_name: String,
    /// Which latch phase this controller drives.
    pub parity: Parity,
    /// Transition of the enable rising edge.
    pub rise: TransitionId,
    /// Transition of the enable falling edge.
    pub fall: TransitionId,
}

impl ControllerRef {
    /// The signal name used in transition labels and enable nets:
    /// `<cluster>_m` or `<cluster>_s`.
    pub fn signal_name(&self) -> String {
        format!("{}_{}", self.cluster_name, self.parity.suffix())
    }
}

/// The composed, timed marked-graph model of the whole control network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlModel {
    /// The composed marked graph (transitions labelled `<cluster>_<m|s>+` /
    /// `...-`, place delays in picoseconds). Private since the cycle-time /
    /// reference-transition analysis is cached at build time — mutating the
    /// graph afterwards would silently desynchronize the cache; read access
    /// goes through [`ControlModel::graph`].
    graph: MarkedGraph,
    /// One controller per cluster and parity, in cluster order (master
    /// first, then slave), optionally followed by the environment pair.
    pub controllers: Vec<ControllerRef>,
    delays: ModelDelays,
    has_environment: bool,
    /// Steady-state cycle time (maximum cycle ratio over all components),
    /// computed once at build time for the reports, schedule horizons and
    /// sweep rows that read it.
    steady_cycle_time_ps: f64,
    /// Reference transition of the slowest component, cached for
    /// [`ControlModel::simulate`].
    reference: Option<TransitionId>,
}

impl ControlModel {
    /// Builds the control model for a cluster graph.
    ///
    /// `edge_delay_ps` gives, for every cluster edge `(from, to)`, the delay
    /// budget of the forward request arc — normally the matched delay of the
    /// combinational logic between the two clusters plus the latch delay.
    /// Edges missing from the map get the latch delay only (direct
    /// connection).
    pub fn build(
        clusters: &ClusterGraph,
        protocol: Protocol,
        edge_delay_ps: &HashMap<(usize, usize), f64>,
        delays: ModelDelays,
    ) -> Self {
        Self::build_with_environment(clusters, protocol, edge_delay_ps, None, delays)
    }

    /// Builds the control model including an explicit *environment*
    /// controller pair, as the paper's auxiliary arcs prescribe for the
    /// abstracted parts of the system.
    ///
    /// The environment behaves like one extra latch stage: its slave feeds
    /// every input-fed cluster (supplying the input vectors) and every
    /// output-feeding cluster feeds its master (consuming the results). This
    /// keeps all clusters that interact with the outside world synchronized
    /// to the rate at which the environment provides data, which is the
    /// condition under which flow equivalence against a clocked reference is
    /// meaningful.
    pub fn build_with_environment(
        clusters: &ClusterGraph,
        protocol: Protocol,
        edge_delay_ps: &HashMap<(usize, usize), f64>,
        environment: Option<&EnvironmentSpec>,
        delays: ModelDelays,
    ) -> Self {
        let mut graph = MarkedGraph::new();
        let mut controllers = Vec::with_capacity(clusters.len() * 2 + 2);
        let make_controller_pair = |graph: &mut MarkedGraph,
                                    controllers: &mut Vec<ControllerRef>,
                                    idx: usize,
                                    name: &str| {
            for parity in [Parity::Even, Parity::Odd] {
                let signal = format!("{}_{}", name, parity.suffix());
                let rise = graph.add_transition(format!("{signal}+"));
                let fall = graph.add_transition(format!("{signal}-"));
                // Local controller cycle.
                graph.add_place(
                    rise,
                    fall,
                    initial_tokens(parity, true, parity, false),
                    delays.pulse_width_ps,
                );
                graph.add_place(
                    fall,
                    rise,
                    initial_tokens(parity, false, parity, true),
                    delays.controller_ps,
                );
                controllers.push(ControllerRef {
                    cluster: idx,
                    cluster_name: name.to_string(),
                    parity,
                    rise,
                    fall,
                });
            }
        };
        // Create the two controllers (four transitions) per cluster.
        for (idx, cluster) in clusters.clusters.iter().enumerate() {
            make_controller_pair(&mut graph, &mut controllers, idx, &cluster.name);
        }
        let has_environment = environment.is_some();
        if has_environment {
            let taken: HashSet<&str> = (clusters.clusters.iter())
                .map(|cluster| cluster.name.as_str())
                .filter(|name| name.starts_with(ENVIRONMENT_NAME))
                .collect();
            let name = std::iter::once(ENVIRONMENT_NAME.to_string())
                .chain((1..).map(|i| format!("{ENVIRONMENT_NAME}_{i}")))
                .find(|name| !taken.contains(name.as_str()))
                .expect("finitely many clusters leave a name free");
            make_controller_pair(&mut graph, &mut controllers, clusters.len(), &name);
        }
        let controller_of = |cluster: usize, parity: Parity| -> &ControllerRef {
            &controllers[cluster * 2 + usize::from(parity == Parity::Odd)]
        };

        // Pairwise patterns. The duplicate filter below is a set lookup over
        // (from, to, tokens) instead of a scan of the whole place list per
        // added place (which made model construction quadratic).
        let mut existing_places: HashSet<(TransitionId, TransitionId, u32)> = graph
            .places()
            .map(|(_, p)| (p.from, p.to, p.initial_tokens))
            .collect();
        let mut add_pair = |graph: &mut MarkedGraph,
                            src: &ControllerRef,
                            dst: &ControllerRef,
                            forward_delay: f64,
                            arcs: &[(PairEvent, PairEvent)]| {
            for &(from, to) in arcs {
                let (from_ctrl, from_rise) = match from {
                    PairEvent::SrcRise => (src, true),
                    PairEvent::SrcFall => (src, false),
                    PairEvent::DstRise => (dst, true),
                    PairEvent::DstFall => (dst, false),
                };
                let (to_ctrl, to_rise) = match to {
                    PairEvent::SrcRise => (src, true),
                    PairEvent::SrcFall => (src, false),
                    PairEvent::DstRise => (dst, true),
                    PairEvent::DstFall => (dst, false),
                };
                let tokens = initial_tokens(from_ctrl.parity, from_rise, to_ctrl.parity, to_rise);
                // The data-carrying arc src+ -> dst- gets the forward delay;
                // every other (acknowledge) arc gets the controller delay.
                let delay = if from == PairEvent::SrcRise && to == PairEvent::DstFall {
                    forward_delay
                } else {
                    delays.controller_ps
                };
                let from_t = if from_rise {
                    from_ctrl.rise
                } else {
                    from_ctrl.fall
                };
                let to_t = if to_rise { to_ctrl.rise } else { to_ctrl.fall };
                // Avoid duplicating an identical place (e.g. self-loop edges).
                if !existing_places.insert((from_t, to_t, tokens)) {
                    continue;
                }
                graph.add_place(from_t, to_t, tokens, delay);
            }
        };

        // Intra-cluster pair: master (even) feeds slave (odd) directly.
        //
        // Within one master/slave pair the two transparency windows must not
        // overlap (a flip-flop is never transparent end to end), so the
        // `a- -> b+` constraint is always added here regardless of the
        // protocol chosen for the inter-stage handshakes. This also anchors
        // the inter-stage matched delays correctly: when a slave opens, its
        // master has already captured the item being forwarded.
        let mut intra_arcs: Vec<(PairEvent, PairEvent)> = protocol.pair_arcs().to_vec();
        if !intra_arcs.contains(&(PairEvent::SrcFall, PairEvent::DstRise)) {
            intra_arcs.push((PairEvent::SrcFall, PairEvent::DstRise));
        }
        for idx in 0..clusters.len() {
            let src = controller_of(idx, Parity::Even).clone();
            let dst = controller_of(idx, Parity::Odd).clone();
            add_pair(&mut graph, &src, &dst, delays.latch_ps, &intra_arcs);
        }
        // The environment pair gets the same intra constraint.
        if has_environment {
            let src = controller_of(clusters.len(), Parity::Even).clone();
            let dst = controller_of(clusters.len(), Parity::Odd).clone();
            add_pair(&mut graph, &src, &dst, delays.latch_ps, &intra_arcs);
        }
        // Inter-cluster pairs: slave (odd) of the source feeds master (even)
        // of the destination through the combinational logic. Here pulses of
        // adjacent stages may overlap — this is the paper's overlapping
        // de-synchronization model.
        for edge in &clusters.edges {
            let src = controller_of(edge.from, Parity::Odd).clone();
            let dst = controller_of(edge.to, Parity::Even).clone();
            let forward = edge_delay_ps
                .get(&(edge.from, edge.to))
                .copied()
                .unwrap_or(delays.latch_ps);
            add_pair(&mut graph, &src, &dst, forward, protocol.pair_arcs());
        }
        // Environment pairs: the environment's slave supplies data to every
        // input-fed cluster and every output-feeding cluster delivers data to
        // the environment's master (the paper's auxiliary arcs).
        if let Some(env) = environment {
            let env_slave = controller_of(clusters.len(), Parity::Odd).clone();
            let env_master = controller_of(clusters.len(), Parity::Even).clone();
            for (idx, &fed) in clusters.input_fed.iter().enumerate() {
                if !fed {
                    continue;
                }
                let dst = controller_of(idx, Parity::Even).clone();
                let forward = env
                    .input_delay_ps
                    .get(&idx)
                    .copied()
                    .unwrap_or(delays.latch_ps);
                add_pair(&mut graph, &env_slave, &dst, forward, protocol.pair_arcs());
            }
            for (idx, &feeding) in clusters.output_feeding.iter().enumerate() {
                if !feeding {
                    continue;
                }
                let src = controller_of(idx, Parity::Odd).clone();
                let forward = env
                    .output_delay_ps
                    .get(&idx)
                    .copied()
                    .unwrap_or(delays.latch_ps);
                add_pair(&mut graph, &src, &env_master, forward, protocol.pair_arcs());
            }
        }

        let mut model = Self {
            graph,
            controllers,
            delays,
            has_environment,
            steady_cycle_time_ps: 0.0,
            reference: None,
        };
        // Cache the per-component cycle-time analysis: the maximum over all
        // components is the steady-state cycle time, and the slowest
        // component supplies the simulation reference transition (ties go to
        // the later component, matching the previous `max_by` behaviour).
        let mut slowest = f64::NEG_INFINITY;
        for component in model.components() {
            let cycle = model.component_graph(&component).cycle_time();
            model.steady_cycle_time_ps = model.steady_cycle_time_ps.max(cycle);
            if cycle >= slowest {
                slowest = cycle;
                model.reference = component.first().copied();
            }
        }
        model
    }

    /// The composed marked graph (read-only: the cycle-time analysis is
    /// cached at build time, so the graph is immutable once built).
    pub fn graph(&self) -> &MarkedGraph {
        &self.graph
    }

    /// Whether the model contains the explicit environment controller pair.
    pub fn has_environment(&self) -> bool {
        self.has_environment
    }

    /// The environment controller of the given parity, when the model was
    /// built with one. The environment pair follows the last cluster's pair,
    /// so it is found by position: a cluster may itself be named
    /// [`ENVIRONMENT_NAME`].
    pub fn environment_controller(&self, parity: Parity) -> Option<&ControllerRef> {
        self.has_environment
            .then(|| self.controller(self.controllers.len() / 2 - 1, parity))
    }

    /// The delay parameters the model was built with.
    pub fn delays(&self) -> &ModelDelays {
        &self.delays
    }

    /// The controller driving the given cluster and parity.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn controller(&self, cluster: usize, parity: Parity) -> &ControllerRef {
        &self.controllers[cluster * 2 + usize::from(parity == Parity::Odd)]
    }

    /// Number of controllers (two per cluster).
    pub fn num_controllers(&self) -> usize {
        self.controllers.len()
    }

    /// The weakly connected components of the control graph, as transition
    /// sets. Independent register islands (for example a free-running
    /// counter with no data-flow connection to the rest of the design) form
    /// their own components and are analyzed separately.
    pub fn components(&self) -> Vec<Vec<TransitionId>> {
        let n = self.graph.num_transitions();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (_, p) in self.graph.places() {
            let a = find(&mut parent, p.from.index());
            let b = find(&mut parent, p.to.index());
            if a != b {
                parent[a] = b;
            }
        }
        let mut groups: HashMap<usize, Vec<TransitionId>> = HashMap::new();
        for t in 0..n {
            let root = find(&mut parent, t);
            groups.entry(root).or_default().push(TransitionId(t as u32));
        }
        let mut components: Vec<Vec<TransitionId>> = groups.into_values().collect();
        components.sort_by_key(|c| c.iter().map(|t| t.index()).min().unwrap_or(0));
        components
    }

    /// Extracts the sub-marked-graph induced by a set of transitions.
    pub fn component_graph(&self, transitions: &[TransitionId]) -> MarkedGraph {
        let mut sub = MarkedGraph::new();
        let mut map: HashMap<TransitionId, TransitionId> = HashMap::new();
        for &t in transitions {
            let new = sub.add_transition(self.graph.transition(t).label.clone());
            map.insert(t, new);
        }
        for (_, p) in self.graph.places() {
            if let (Some(&f), Some(&t)) = (map.get(&p.from), map.get(&p.to)) {
                sub.add_place(f, t, p.initial_tokens, p.delay);
            }
        }
        sub
    }

    /// Whether the control model is live. A token-free cycle lies within one
    /// weak component, so the whole graph is checked at once.
    pub fn is_live(&self) -> bool {
        self.graph.is_live()
    }

    /// Whether every component of the control model is safe. A component
    /// that is not live is explored on its own.
    pub fn is_safe(&self) -> bool {
        self.components()
            .iter()
            .all(|c| self.component_graph(c).is_safe())
    }

    /// Witness-producing proof of the model's structural correctness: runs
    /// the `desync-lint` marked-graph suite on every weakly connected
    /// component and merges the diagnostics.
    ///
    /// A component is clean iff it is live, safe and strongly connected, so
    /// a clean report is the static certificate behind
    /// [`ControlModel::is_live`] / [`ControlModel::is_safe`]; a dirty one
    /// names the exact token-free or overloaded cycle (as transition
    /// labels), which the bare booleans cannot. The Controlled stage checks
    /// every model it builds with this report.
    pub fn lint(&self) -> desync_lint::LintReport {
        let mut report = desync_lint::LintReport::new();
        for component in self.components() {
            report.merge(desync_lint::lint_marked_graph(
                &self.component_graph(&component),
            ));
        }
        report
    }

    /// The steady-state cycle time of the desynchronized circuit: the
    /// maximum cycle ratio over all components, in picoseconds (computed
    /// once at build time).
    pub fn cycle_time_ps(&self) -> f64 {
        self.steady_cycle_time_ps
    }

    /// Simulates the timed token game for `iterations` firings of the
    /// slowest component's reference transition (cached at build time) and
    /// returns the trace (used to derive the latch-enable schedule for
    /// gate-level co-simulation).
    pub fn simulate(&self, iterations: usize) -> TimedTrace {
        simulate_timed(&self.graph, iterations, self.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterEdge};
    use desync_netlist::CellId;

    /// A hand-built cluster graph: a linear chain of `n` clusters.
    fn chain_clusters(n: usize) -> ClusterGraph {
        ClusterGraph {
            clusters: (0..n)
                .map(|i| Cluster {
                    name: format!("st{i}"),
                    registers: vec![CellId(i as u32)],
                })
                .collect(),
            edges: (1..n).map(|i| ClusterEdge { from: i - 1, to: i }).collect(),
            input_fed: (0..n).map(|i| i == 0).collect(),
            output_feeding: (0..n).map(|i| i == n - 1).collect(),
        }
    }

    fn uniform_delays(clusters: &ClusterGraph, d: f64) -> HashMap<(usize, usize), f64> {
        clusters.edges.iter().map(|e| ((e.from, e.to), d)).collect()
    }

    #[test]
    fn pipeline_model_is_live_and_safe_for_all_protocols() {
        let clusters = chain_clusters(4);
        let delays = uniform_delays(&clusters, 900.0);
        for &protocol in Protocol::all() {
            let model = ControlModel::build(&clusters, protocol, &delays, ModelDelays::default());
            assert_eq!(model.num_controllers(), 8);
            assert!(model.is_live(), "{protocol} must be live");
            assert!(model.is_safe(), "{protocol} must be safe");
            assert!(model.cycle_time_ps() > 0.0);
        }
    }

    #[test]
    fn fully_decoupled_is_fastest() {
        let clusters = chain_clusters(4);
        let delays = uniform_delays(&clusters, 900.0);
        let ct = |p: Protocol| {
            ControlModel::build(&clusters, p, &delays, ModelDelays::default()).cycle_time_ps()
        };
        let fd = ct(Protocol::FullyDecoupled);
        let sd = ct(Protocol::SemiDecoupled);
        let no = ct(Protocol::NonOverlapping);
        // Adding constraints can only slow the model down (up to numerical
        // tolerance of the cycle-ratio computation). For a balanced pipeline
        // the critical cycle is the same request/acknowledge loop for every
        // protocol, so the times may coincide.
        let tol = 1e-6 * fd.max(1.0);
        assert!(fd <= sd + tol, "fully-decoupled {fd} vs semi {sd}");
        assert!(sd <= no + tol, "semi {sd} vs non-overlapping {no}");
    }

    #[test]
    fn cycle_time_tracks_stage_delay() {
        let clusters = chain_clusters(3);
        let slow = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &uniform_delays(&clusters, 2_000.0),
            ModelDelays::default(),
        );
        let fast = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &uniform_delays(&clusters, 500.0),
            ModelDelays::default(),
        );
        assert!(slow.cycle_time_ps() > fast.cycle_time_ps());
        // The slow design's cycle time is at least the stage delay.
        assert!(slow.cycle_time_ps() >= 2_000.0);
    }

    #[test]
    fn self_loop_cluster_forms_its_own_live_ring() {
        // A single cluster feeding itself (a counter).
        let clusters = ClusterGraph {
            clusters: vec![Cluster {
                name: "count".into(),
                registers: vec![CellId(0)],
            }],
            edges: vec![ClusterEdge { from: 0, to: 0 }],
            input_fed: vec![false],
            output_feeding: vec![true],
        };
        let delays = uniform_delays(&clusters, 600.0);
        let model = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &delays,
            ModelDelays::default(),
        );
        assert!(model.is_live());
        assert!(model.is_safe());
        assert!(model.cycle_time_ps() >= 600.0);
    }

    /// Two clusters with no edge between them.
    fn disconnected_clusters() -> ClusterGraph {
        ClusterGraph {
            clusters: vec![
                Cluster {
                    name: "a".into(),
                    registers: vec![CellId(0)],
                },
                Cluster {
                    name: "b".into(),
                    registers: vec![CellId(1)],
                },
            ],
            edges: vec![],
            input_fed: vec![true, true],
            output_feeding: vec![true, true],
        }
    }

    #[test]
    fn disconnected_clusters_are_separate_components() {
        let clusters = disconnected_clusters();
        let model = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &HashMap::new(),
            ModelDelays::default(),
        );
        assert_eq!(model.components().len(), 2);
        assert!(model.is_live());
        assert!(model.is_safe());
    }

    #[test]
    fn lint_is_clean_on_live_and_safe_models() {
        let environment = EnvironmentSpec::default();
        for clusters in [chain_clusters(3), disconnected_clusters()] {
            let delays = uniform_delays(&clusters, 500.0);
            for &protocol in Protocol::all() {
                for env in [None, Some(&environment)] {
                    let model = ControlModel::build_with_environment(
                        &clusters,
                        protocol,
                        &delays,
                        env,
                        ModelDelays::default(),
                    );
                    let context = format!("{protocol}, environment {}", env.is_some());
                    assert!(model.is_live() && model.is_safe(), "{context}");
                    let report = model.lint();
                    assert!(report.is_clean(), "{context}: {report}");
                }
            }
        }
    }

    #[test]
    fn simulation_period_matches_cycle_time() {
        let clusters = chain_clusters(4);
        let delays = uniform_delays(&clusters, 900.0);
        let model = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &delays,
            ModelDelays::default(),
        );
        let trace = model.simulate(40);
        assert!(trace.iterations >= 30);
        let analytic = model.cycle_time_ps();
        assert!(
            (trace.period - analytic).abs() / analytic < 0.05,
            "simulated {} vs analytic {}",
            trace.period,
            analytic
        );
    }

    #[test]
    fn controller_lookup_and_labels() {
        let clusters = chain_clusters(2);
        let model = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &uniform_delays(&clusters, 100.0),
            ModelDelays::default(),
        );
        let c = model.controller(1, Parity::Odd);
        assert_eq!(c.cluster, 1);
        assert_eq!(c.signal_name(), "st1_s");
        assert_eq!(model.graph().transition(c.rise).label, "st1_s+");
        assert_eq!(model.graph().transition(c.fall).label, "st1_s-");
        assert_eq!(model.delays().latch_ps, ModelDelays::default().latch_ps);
    }

    #[test]
    fn model_is_consistent_as_an_stg() {
        let clusters = chain_clusters(3);
        let model = ControlModel::build(
            &clusters,
            Protocol::FullyDecoupled,
            &uniform_delays(&clusters, 500.0),
            ModelDelays::default(),
        );
        let stg = desync_mg::Stg::from_graph(model.graph().clone());
        assert_eq!(stg.is_consistent(200_000), Some(true));
    }

    /// `din -> NOT -> r0 -> NOT -> r1 -> 30 NOTs -> <last> -> q`: the long
    /// chain before the last register makes a wrongly timed input vector
    /// show up as a capture mismatch.
    fn chain_ending_in(last: &str) -> desync_netlist::Netlist {
        use desync_netlist::{CellKind, Netlist};
        let mut n = Netlist::new("chain");
        let clk = n.add_input("clk");
        let din = n.add_input("din");
        let d0 = n.add_net("d0");
        let q0 = n.add_net("q0");
        let d1 = n.add_net("d1");
        let q1 = n.add_net("q1");
        let q = n.add_output("q");
        n.add_gate("inv_in", CellKind::Not, &[din], d0).unwrap();
        n.add_dff("r0", d0, clk, q0).unwrap();
        n.add_gate("inv_mid", CellKind::Not, &[q0], d1).unwrap();
        n.add_dff("r1", d1, clk, q1).unwrap();
        let mut w = q1;
        for i in 0..30 {
            let next = n.add_net(format!("w{i}"));
            n.add_gate(format!("inv{i}"), CellKind::Not, &[w], next)
                .unwrap();
            w = next;
        }
        n.add_dff(last, w, clk, q).unwrap();
        n
    }

    /// Every transition label of `model` is distinct and the STG view of
    /// its graph, which merges transitions by label, is consistent.
    fn assert_labels_distinct_and_consistent(model: &ControlModel, context: &str) {
        let graph = model.graph();
        let labels: HashSet<&str> = graph.transitions().map(|(_, t)| t.label.as_str()).collect();
        assert_eq!(labels.len(), graph.num_transitions(), "{context}");
        let stg = desync_mg::Stg::from_graph(graph.clone());
        assert_eq!(stg.is_consistent(200_000), Some(true), "{context}");
    }

    #[test]
    fn a_cluster_named_like_the_environment_keeps_the_labels_distinct() {
        use crate::{ClusteringStrategy, DesyncFlow, DesyncOptions};
        use desync_netlist::CellLibrary;

        let library = CellLibrary::generic_90nm();
        for last in ["enq", ENVIRONMENT_NAME] {
            let n = chain_ending_in(last);
            for &protocol in Protocol::all() {
                let options = DesyncOptions::default()
                    .with_clustering(ClusteringStrategy::PerRegister)
                    .with_protocol(protocol);
                let mut flow = DesyncFlow::new(&n, &library, options).unwrap();
                let model = &flow.controlled().unwrap().model;
                assert_labels_distinct_and_consistent(model, &format!("{last}, {protocol}"));
            }
        }
        // With `env` and `env_1` both taken, the environment is `env_2`.
        let mut clusters = chain_clusters(3);
        clusters.clusters[0].name = ENVIRONMENT_NAME.to_string();
        clusters.clusters[1].name = format!("{ENVIRONMENT_NAME}_1");
        let model = ControlModel::build_with_environment(
            &clusters,
            Protocol::FullyDecoupled,
            &uniform_delays(&clusters, 500.0),
            Some(&EnvironmentSpec::default()),
            ModelDelays::default(),
        );
        let env = model.environment_controller(Parity::Odd).unwrap();
        assert_eq!(env.cluster_name, "env_2");
        assert_labels_distinct_and_consistent(&model, "env, env_1, st2");
    }

    #[test]
    fn a_register_named_like_the_environment_does_not_replace_it() {
        use crate::{ClusteringStrategy, DesyncFlow, DesyncOptions};
        use desync_netlist::CellLibrary;
        use desync_sim::VectorSource;

        let library = CellLibrary::generic_90nm();
        for last in ["enq", ENVIRONMENT_NAME] {
            let n = chain_ending_in(last);
            let din = n.find_net("din").unwrap();
            for &protocol in Protocol::all() {
                let options = DesyncOptions::default()
                    .with_clustering(ClusteringStrategy::PerRegister)
                    .with_protocol(protocol);
                let mut flow = DesyncFlow::new(&n, &library, options).unwrap();
                let clusters = flow.clustered().unwrap().len();
                let model = &flow.controlled().unwrap().model;
                for parity in [Parity::Even, Parity::Odd] {
                    let env = model.environment_controller(parity).unwrap();
                    assert_eq!(env.cluster, clusters, "{last}, {protocol}");
                    assert_eq!(env.parity, parity);
                }
                flow.set_verification(VectorSource::pseudo_random(vec![din], 7), 24);
                let report = flow.verified().unwrap();
                assert!(report.is_equivalent(), "{last}, {protocol}");
            }
        }
    }
}
