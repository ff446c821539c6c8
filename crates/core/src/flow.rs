//! The one-call desynchronization flow and its product.
//!
//! [`Desynchronizer::run`] is a thin convenience wrapper over the staged
//! pipeline ([`DesyncFlow`]): it advances a fresh flow
//! through clustering, latch conversion, matched-delay sizing and controller
//! synthesis, and bundles the artifacts into a [`DesyncDesign`]. Use the
//! staged API directly when you need intermediate artifacts, want to resume
//! after changing a knob, or need per-stage timing.

use crate::cluster::{ClusterGraph, Parity};
use crate::controller::ControllerImpl;
use crate::conversion::LatchDesign;
use crate::error::DesyncError;
use crate::model::ControlModel;
use crate::options::DesyncOptions;
use crate::pipeline::DesyncFlow;
use desync_netlist::{CellLibrary, Netlist, Value};
use desync_sim::EnableSchedule;
use desync_sta::MatchedDelay;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The desynchronization engine, bound to one netlist, library and option
/// set.
///
/// This is the one-call entry point; it delegates to the staged
/// [`DesyncFlow`] and produces the identical
/// [`DesyncDesign`].
#[derive(Debug, Clone)]
pub struct Desynchronizer<'a> {
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    options: DesyncOptions,
}

impl<'a> Desynchronizer<'a> {
    /// Creates a new flow instance.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary, options: DesyncOptions) -> Self {
        Self {
            netlist,
            library,
            options,
        }
    }

    /// The options the flow will use.
    pub fn options(&self) -> &DesyncOptions {
        &self.options
    }

    /// Runs the complete flow by advancing a fresh
    /// [`DesyncFlow`] through every construction stage.
    ///
    /// # Errors
    ///
    /// * [`DesyncError::InvalidOptions`] when the options fail
    ///   [`DesyncOptions::validate`].
    /// * [`DesyncError::Netlist`] / [`DesyncError::NoRegisters`] /
    ///   [`DesyncError::AlreadyLatchBased`] when the input netlist is not a
    ///   valid single-clock flip-flop design.
    /// * [`DesyncError::ModelCheck`] when the composed control model fails
    ///   the liveness or safeness check (this indicates an internal error —
    ///   the construction is correct by design for valid inputs).
    pub fn run(&self) -> Result<DesyncDesign, DesyncError> {
        DesyncFlow::new(self.netlist, self.library, self.options)?.design()
    }
}

/// The product of the desynchronization flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesyncDesign {
    original_name: String,
    options: DesyncOptions,
    clusters: ClusterGraph,
    latch_design: LatchDesign,
    overhead: Netlist,
    controllers: Vec<ControllerImpl>,
    matched_delays: HashMap<(usize, usize), MatchedDelay>,
    control_model: ControlModel,
    sync_clock_period_ps: f64,
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
    /// execution (right after the `k`-th capture of the input-fed master
    /// latches).
    pub input_vector_times: Vec<f64>,
    /// Number of handshake iterations the schedule covers.
    pub iterations: usize,
}

impl DesyncDesign {
    /// Assembles a design from the staged pipeline's artifacts (used by
    /// [`DesyncFlow::design`](crate::DesyncFlow::design)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        original_name: String,
        options: DesyncOptions,
        clusters: ClusterGraph,
        latch_design: LatchDesign,
        overhead: Netlist,
        controllers: Vec<ControllerImpl>,
        matched_delays: HashMap<(usize, usize), MatchedDelay>,
        control_model: ControlModel,
        sync_clock_period_ps: f64,
    ) -> Self {
        Self {
            original_name,
            options,
            clusters,
            latch_design,
            overhead,
            controllers,
            matched_delays,
            control_model,
            sync_clock_period_ps,
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
        &self.overhead
    }

    /// The generated controllers.
    pub fn controllers(&self) -> &[ControllerImpl] {
        &self.controllers
    }

    /// The matched delay sized for each cluster edge.
    pub fn matched_delays(&self) -> &HashMap<(usize, usize), MatchedDelay> {
        &self.matched_delays
    }

    /// The timed marked-graph model of the control network.
    pub fn control_model(&self) -> &ControlModel {
        &self.control_model
    }

    /// The clock period of the synchronous baseline (from STA), picoseconds.
    pub fn synchronous_period_ps(&self) -> f64 {
        self.sync_clock_period_ps
    }

    /// The steady-state cycle time of the desynchronized design,
    /// picoseconds.
    pub fn cycle_time_ps(&self) -> f64 {
        self.control_model.cycle_time_ps()
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
    pub fn enable_schedule(&self, iterations: usize, start_offset_ps: f64) -> ScheduleBundle {
        let trace = self.control_model.simulate(iterations);
        let mut schedule = EnableSchedule::new();
        let num_clusters = self.clusters.len();
        // Controller transition -> (enable net, rising?). The environment
        // controllers have no physical enable net and are skipped here.
        let mut fall_times_per_input_cluster: Vec<Vec<f64>> = Vec::new();
        let mut event_map: HashMap<u32, (desync_netlist::NetId, bool, Option<usize>)> =
            HashMap::new();
        for ctrl in &self.control_model.controllers {
            if ctrl.cluster >= num_clusters {
                continue; // virtual environment controller
            }
            let (master_en, slave_en) = self.latch_design.enable_nets(ctrl.cluster);
            let net = match ctrl.parity {
                Parity::Even => master_en,
                Parity::Odd => slave_en,
            };
            // Track master-fall times of input-fed clusters; they time the
            // environment's input vectors when no explicit environment
            // controller is present.
            let input_slot = if ctrl.parity == Parity::Even && self.clusters.input_fed[ctrl.cluster]
            {
                fall_times_per_input_cluster.push(Vec::new());
                Some(fall_times_per_input_cluster.len() - 1)
            } else {
                None
            };
            event_map.insert(ctrl.rise.0, (net, true, None));
            event_map.insert(ctrl.fall.0, (net, false, input_slot));
        }
        for firing in &trace.firings {
            if let Some(&(net, rising, input_slot)) = event_map.get(&firing.transition.0) {
                let time = firing.time + start_offset_ps;
                schedule.push(time, net, if rising { Value::One } else { Value::Zero });
                if let Some(slot) = input_slot {
                    fall_times_per_input_cluster[slot].push(time);
                }
            }
        }
        // Input vector timing.
        let input_vector_times: Vec<f64> = if let Some(env_slave) = self
            .control_model
            .environment_controller(crate::cluster::Parity::Odd)
        {
            // With an explicit environment, vector k is launched when the
            // environment's slave opens for the k-th time: by construction
            // that is after every input-fed master captured item k and
            // before any of them captures item k + 1.
            trace
                .firings
                .iter()
                .filter(|f| f.transition == env_slave.rise)
                .map(|f| f.time + start_offset_ps + 1.0)
                .collect()
        } else {
            // Fallback (no environment): vector k goes out right after the
            // k-th capture of the input-fed master latches (the latest such
            // capture across clusters).
            let max_falls = fall_times_per_input_cluster
                .iter()
                .map(Vec::len)
                .min()
                .unwrap_or(0);
            (0..max_falls)
                .map(|k| {
                    fall_times_per_input_cluster
                        .iter()
                        .map(|falls| falls[k])
                        .fold(0.0, f64::max)
                        + 1.0
                })
                .collect()
        };
        ScheduleBundle {
            horizon_ps: schedule.horizon_ps(),
            schedule,
            input_vector_times,
            iterations,
        }
    }

    /// A compact summary of the design for reports and the example binaries.
    pub fn summary(&self) -> DesyncSummary {
        let total_delay_cells: usize = self.matched_delays.values().map(|m| m.num_cells).sum();
        let controller_cells: usize = self.controllers.iter().map(ControllerImpl::num_cells).sum();
        DesyncSummary {
            original_name: self.original_name.clone(),
            protocol: self.options.protocol,
            clusters: self.clusters.len(),
            cluster_edges: self.clusters.edges.len(),
            flip_flops: self.clusters.num_registers(),
            latches: self.latch_design.netlist.num_latches(),
            controllers: self.controllers.len(),
            controller_cells,
            matched_delay_cells: total_delay_cells,
            sync_period_ps: self.sync_clock_period_ps,
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
    use crate::options::ClusteringStrategy;
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
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
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
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
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
        let design = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
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
        let prefix = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap();
        let per_reg = Desynchronizer::new(
            &n,
            &library,
            DesyncOptions::default().with_clustering(ClusteringStrategy::PerRegister),
        )
        .run()
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
        let err = Desynchronizer::new(&n, &library, DesyncOptions::default())
            .run()
            .unwrap_err();
        assert_eq!(err, DesyncError::NoRegisters);
    }

    #[test]
    fn protocols_trade_cycle_time() {
        let n = pipeline3();
        let library = lib();
        let cycle = |p: Protocol| {
            Desynchronizer::new(&n, &library, DesyncOptions::default().with_protocol(p))
                .run()
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
