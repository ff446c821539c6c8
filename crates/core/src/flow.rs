//! The product of the desynchronization flow.
//!
//! [`DesyncFlow::design`](crate::DesyncFlow::design) bundles the artifacts
//! of the staged pipeline into a [`DesyncDesign`]: the cluster graph, the
//! latch datapath, the matched delays and the control network, plus the
//! enable schedule and summary derived from them.

use crate::cluster::{ClusterGraph, Parity};
use crate::controller::ControllerImpl;
use crate::conversion::LatchDesign;
use crate::model::ControlModel;
use crate::options::DesyncOptions;
use crate::pipeline::{ControlNetwork, TimingTable};
use desync_netlist::{CellLibrary, Netlist, Value};
use desync_sim::EnableSchedule;
use desync_sta::MatchedDelay;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The product of the desynchronization flow.
///
/// A design shares the four construction artifacts with the flow that
/// assembled it (and with the engine's store): cloning a design clones four
/// `Arc`s, and equality compares contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesyncDesign {
    original_name: String,
    options: DesyncOptions,
    clusters: Arc<ClusterGraph>,
    latch_design: Arc<LatchDesign>,
    timing: Arc<TimingTable>,
    network: Arc<ControlNetwork>,
}

/// The latch-enable schedule derived from the control model for gate-level
/// co-simulation, plus the recommended times at which the environment should
/// apply its input vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleBundle {
    /// Enable events for the latch datapath (absolute times, picoseconds).
    pub schedule: EnableSchedule,
    /// Time of the last scheduled event.
    pub horizon_ps: f64,
    /// `input_vector_times[k]` is the time at which input vector `k` should
    /// be applied so that the captured streams line up with the synchronous
    /// execution (when the environment's slave opens for the `k`-th time,
    /// after every input-fed master latch captured item `k`). Empty for a
    /// design without the environment model.
    pub input_vector_times: Vec<f64>,
    /// Number of handshake iterations the schedule covers.
    pub iterations: usize,
}

impl DesyncDesign {
    /// Assembles a design from the staged pipeline's artifacts (used by
    /// [`DesyncFlow::design`](crate::DesyncFlow::design)).
    pub(crate) fn from_parts(
        original_name: String,
        options: DesyncOptions,
        clusters: Arc<ClusterGraph>,
        latch_design: Arc<LatchDesign>,
        timing: Arc<TimingTable>,
        network: Arc<ControlNetwork>,
    ) -> Self {
        Self {
            original_name,
            options,
            clusters,
            latch_design,
            timing,
            network,
        }
    }

    /// Name of the original synchronous netlist.
    pub fn original_name(&self) -> &str {
        &self.original_name
    }

    /// The options the design was produced with.
    pub fn options(&self) -> &DesyncOptions {
        &self.options
    }

    /// The cluster graph of the original netlist.
    pub fn clusters(&self) -> &ClusterGraph {
        &self.clusters
    }

    /// The latch-based datapath and its register mapping.
    pub fn latch_design(&self) -> &LatchDesign {
        &self.latch_design
    }

    /// The latch-based datapath netlist (enables as primary inputs).
    pub fn latch_netlist(&self) -> &Netlist {
        &self.latch_design.netlist
    }

    /// The overhead netlist: handshake controllers (`ctl_*`) and matched
    /// delay lines (`md_*`).
    pub fn overhead_netlist(&self) -> &Netlist {
        &self.network.overhead
    }

    /// The generated controllers.
    pub fn controllers(&self) -> &[ControllerImpl] {
        &self.network.controllers
    }

    /// The matched delay sized for each cluster edge.
    pub fn matched_delays(&self) -> &HashMap<(usize, usize), MatchedDelay> {
        &self.timing.matched_delays
    }

    /// The timed marked-graph model of the control network.
    pub fn control_model(&self) -> &ControlModel {
        &self.network.model
    }

    /// The clock period of the synchronous baseline (from STA), picoseconds.
    pub fn synchronous_period_ps(&self) -> f64 {
        self.timing.sync_clock_period_ps
    }

    /// The steady-state cycle time of the desynchronized design,
    /// picoseconds.
    pub fn cycle_time_ps(&self) -> f64 {
        self.network.model.cycle_time_ps()
    }

    /// Analytic dynamic power of the desynchronization overhead, in
    /// milliwatts: every controller and matched-delay cell output toggles
    /// twice per handshake cycle, and every latch enable pin (the local
    /// "clock" distribution that replaces the global tree) is charged and
    /// discharged once per cycle.
    pub fn overhead_power_mw(&self, library: &CellLibrary) -> f64 {
        let cycle = self.cycle_time_ps();
        if cycle <= 0.0 {
            return 0.0;
        }
        let cell_energy_fj: f64 = self
            .network
            .overhead
            .cells()
            .map(|(_, c)| 2.0 * library.template(c.kind).switch_energy_fj)
            .sum();
        // Local enable distribution: two transitions per cycle on every latch
        // enable pin plus a *short local* wire (the controllers sit next to
        // their latch clusters, unlike the global clock tree), at a nominal
        // 1 V supply.
        let latch_cap_ff = library
            .get(desync_netlist::CellKind::LatchHigh)
            .map(|t| t.input_cap_ff)
            .unwrap_or(2.0);
        let wire_cap_ff = 1.0;
        let enable_energy_fj =
            2.0 * self.latch_design.netlist.num_latches() as f64 * (latch_cap_ff + wire_cap_ff);
        (cell_energy_fj + enable_energy_fj) / cycle
    }

    /// Derives the latch-enable schedule (and the input application times)
    /// for `iterations` handshake iterations of the control model, shifted
    /// by `start_offset_ps` to leave room for simulator initialization.
    /// The environment controller times the inputs, so `input_vector_times`
    /// is empty for a design built without the environment model.
    pub fn enable_schedule(&self, iterations: usize, start_offset_ps: f64) -> ScheduleBundle {
        let trace = self.network.model.simulate(iterations);
        let mut schedule = EnableSchedule::new();
        let num_clusters = self.clusters.len();
        // Controller transition -> (enable net, rising?). The environment
        // controllers have no physical enable net and are skipped here.
        let mut event_map: HashMap<u32, (desync_netlist::NetId, bool)> = HashMap::new();
        for ctrl in &self.network.model.controllers {
            if ctrl.cluster >= num_clusters {
                continue; // virtual environment controller
            }
            let (master_en, slave_en) = self.latch_design.enable_nets(ctrl.cluster);
            let net = match ctrl.parity {
                Parity::Even => master_en,
                Parity::Odd => slave_en,
            };
            event_map.insert(ctrl.rise.0, (net, true));
            event_map.insert(ctrl.fall.0, (net, false));
        }
        for firing in &trace.firings {
            if let Some(&(net, rising)) = event_map.get(&firing.transition.0) {
                let time = firing.time + start_offset_ps;
                schedule.push(time, net, if rising { Value::One } else { Value::Zero });
            }
        }
        // Vector k is launched when the environment's slave opens for the
        // k-th time: by construction that is after every input-fed master
        // captured item k and before any of them captures item k + 1.
        let env_slave = self.network.model.environment_controller(Parity::Odd);
        let input_vector_times = trace
            .firings
            .iter()
            .filter(|f| env_slave.is_some_and(|env| f.transition == env.rise))
            .map(|f| f.time + start_offset_ps + 1.0)
            .collect();
        ScheduleBundle {
            horizon_ps: schedule.horizon_ps(),
            schedule,
            input_vector_times,
            iterations,
        }
    }

    /// A compact summary of the design for reports and the example binaries.
    pub fn summary(&self) -> DesyncSummary {
        let total_delay_cells = self.timing.total_delay_cells();
        let controller_cells = self.network.controller_cells();
        DesyncSummary {
            original_name: self.original_name.clone(),
            protocol: self.options.protocol,
            clusters: self.clusters.len(),
            cluster_edges: self.clusters.edges.len(),
            flip_flops: self.clusters.num_registers(),
            latches: self.latch_design.netlist.num_latches(),
            controllers: self.network.controllers.len(),
            controller_cells,
            matched_delay_cells: total_delay_cells,
            sync_period_ps: self.timing.sync_clock_period_ps,
            desync_cycle_time_ps: self.cycle_time_ps(),
        }
    }
}

/// Headline numbers of a desynchronized design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesyncSummary {
    /// Name of the original synchronous module.
    pub original_name: String,
    /// Handshake protocol used.
    pub protocol: crate::controller::Protocol,
    /// Number of latch clusters.
    pub clusters: usize,
    /// Number of cluster-to-cluster data-flow edges.
    pub cluster_edges: usize,
    /// Flip-flops in the original design.
    pub flip_flops: usize,
    /// Latches in the desynchronized datapath (2 × flip-flops).
    pub latches: usize,
    /// Number of local clock generators (2 × clusters).
    pub controllers: usize,
    /// Total cells across all controllers.
    pub controller_cells: usize,
    /// Total delay cells across all matched-delay lines.
    pub matched_delay_cells: usize,
    /// Synchronous clock period from STA, picoseconds.
    pub sync_period_ps: f64,
    /// Desynchronized cycle time from the control model, picoseconds.
    pub desync_cycle_time_ps: f64,
}

impl std::fmt::Display for DesyncSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "desynchronization of `{}`", self.original_name)?;
        writeln!(f, "  protocol:            {}", self.protocol)?;
        writeln!(f, "  clusters:            {}", self.clusters)?;
        writeln!(f, "  cluster edges:       {}", self.cluster_edges)?;
        writeln!(
            f,
            "  flip-flops -> latches: {} -> {}",
            self.flip_flops, self.latches
        )?;
        writeln!(
            f,
            "  controllers:         {} ({} cells)",
            self.controllers, self.controller_cells
        )?;
        writeln!(f, "  matched-delay cells: {}", self.matched_delay_cells)?;
        writeln!(f, "  sync clock period:   {:.1} ps", self.sync_period_ps)?;
        write!(
            f,
            "  desync cycle time:   {:.1} ps",
            self.desync_cycle_time_ps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Protocol;
    use crate::error::DesyncError;
    use crate::options::ClusteringStrategy;
    use crate::pipeline::DesyncFlow;
    use desync_netlist::CellKind;

    fn pipeline3() -> Netlist {
        let mut n = Netlist::new("pipe3");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let q0 = n.add_net("q0");
        let w0 = n.add_net("w0");
        let q1 = n.add_net("q1");
        let w1 = n.add_net("w1");
        let q2 = n.add_output("q2");
        n.add_dff("r0", a, clk, q0).unwrap();
        n.add_gate("g0", CellKind::Not, &[q0], w0).unwrap();
        n.add_dff("r1", w0, clk, q1).unwrap();
        n.add_gate("g1", CellKind::Buf, &[q1], w1).unwrap();
        n.add_dff("r2", w1, clk, q2).unwrap();
        n
    }

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    #[test]
    fn flow_runs_end_to_end_on_pipeline() {
        let n = pipeline3();
        let library = lib();
        let design = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        assert!(design.control_model().is_live());
        assert!(design.control_model().is_safe());
        assert!(design.cycle_time_ps() > 0.0);
        assert!(design.synchronous_period_ps() > 0.0);
        assert_eq!(design.latch_netlist().num_latches(), 6);
        assert_eq!(design.clusters().len(), 3);
        assert_eq!(design.controllers().len(), 6);
        assert!(design.overhead_netlist().validate().is_ok());
        assert!(design.overhead_power_mw(&library) > 0.0);
        assert_eq!(design.original_name(), "pipe3");
        assert_eq!(design.options().protocol, Protocol::FullyDecoupled);
        let s = design.summary();
        assert_eq!(s.flip_flops, 3);
        assert_eq!(s.latches, 6);
        assert!(s.to_string().contains("desynchronization of `pipe3`"));
        // Matched delays cover the combinational logic.
        assert!(design.matched_delays().values().all(|m| m.covers_logic()));
    }

    #[test]
    fn desync_cycle_time_is_close_to_sync_period() {
        let n = pipeline3();
        let library = lib();
        let design = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        let sync = design.synchronous_period_ps();
        let desync = design.cycle_time_ps();
        // The paper's headline result is near-identical cycle time on a real
        // processor, where the combinational stage delay dwarfs the
        // handshake overhead. This unit-test pipeline has almost no logic
        // between registers, so the controller overhead dominates; the bound
        // here only checks the overhead stays within a small constant factor
        // (the DLX-scale comparison lives in the benchmark harness).
        assert!(
            desync > 0.5 * sync && desync < 8.0 * sync,
            "sync {sync} desync {desync}"
        );
    }

    #[test]
    fn schedule_covers_all_enables_and_inputs() {
        let n = pipeline3();
        let library = lib();
        let design = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        let bundle = design.enable_schedule(10, 500.0);
        assert_eq!(bundle.iterations, 10);
        assert!(!bundle.schedule.is_empty());
        assert!(bundle.horizon_ps > 500.0);
        // Input vectors are timed after the first capture of the input-fed
        // master latch; there is one input-fed cluster (r0).
        assert!(bundle.input_vector_times.len() >= 8);
        assert!(bundle.input_vector_times.windows(2).all(|w| w[1] > w[0]));
        // All scheduled times respect the start offset.
        assert!(bundle
            .schedule
            .sorted_events()
            .iter()
            .all(|&(t, _, _)| t >= 500.0));
    }

    #[test]
    fn per_register_clustering_gives_more_controllers() {
        let n = pipeline3();
        let library = lib();
        let prefix = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        let per_reg = DesyncFlow::new(
            &n,
            &library,
            DesyncOptions::default().with_clustering(ClusteringStrategy::PerRegister),
        )
        .unwrap()
        .design()
        .unwrap();
        // Same number here because each register already has a unique prefix,
        // but the per-register run must not be coarser.
        assert!(per_reg.clusters().len() >= prefix.clusters().len());
    }

    #[test]
    fn flow_rejects_register_free_netlists() {
        let mut n = Netlist::new("comb");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let library = lib();
        let err = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap_err();
        assert_eq!(err, DesyncError::NoRegisters);
    }

    #[test]
    fn protocols_trade_cycle_time() {
        let n = pipeline3();
        let library = lib();
        let cycle = |p: Protocol| {
            DesyncFlow::new(&n, &library, DesyncOptions::default().with_protocol(p))
                .unwrap()
                .design()
                .unwrap()
                .cycle_time_ps()
        };
        let fd = cycle(Protocol::FullyDecoupled);
        let no = cycle(Protocol::NonOverlapping);
        assert!(
            fd <= no + 1e-6 * fd.max(1.0),
            "fully-decoupled {fd} vs non-overlapping {no}"
        );
    }
}
