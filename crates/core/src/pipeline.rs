//! The staged desynchronization pipeline.
//!
//! [`DesyncFlow`] decomposes the flow of the paper into five explicit,
//! individually inspectable stages:
//!
//! | stage | artifact | produced by |
//! |---|---|---|
//! | [`Stage::Clustered`] | [`ClusterGraph`] | flip-flop clustering |
//! | [`Stage::Latched`] | [`LatchDesign`] | master/slave latch conversion |
//! | [`Stage::Timed`] | [`TimingTable`] | STA + matched-delay sizing |
//! | [`Stage::Controlled`] | [`ControlNetwork`] | controller synthesis + timed marked-graph model |
//! | [`Stage::Verified`] | [`EquivalenceReport`] | gate-level co-simulation |
//!
//! Stages are computed lazily and cached: asking for a stage's artifact
//! ([`DesyncFlow::clustered`], [`DesyncFlow::timed`], …) runs every missing
//! predecessor exactly once. Changing an option mid-flow
//! ([`DesyncFlow::set_protocol`], [`DesyncFlow::set_margin`], …) drops only
//! the artifacts the change invalidates, so a protocol sweep re-runs
//! controller synthesis per protocol while clustering, latch conversion and
//! delay sizing are computed once. Matched-delay sizing walks only each
//! source cluster's forward cone, so it runs on the calling thread.
//!
//! [`DesyncFlow::report`] returns a [`FlowReport`] with per-stage run counts
//! and wall times, which the bench crate uses to attribute cost to stages.

use crate::cluster::{ClusterGraph, Parity};
use crate::controller::ControllerImpl;
use crate::conversion::{to_desynchronized_datapath, LatchDesign};
use crate::engine::{Cached, DesyncEngine, EngineHandle};
use crate::error::DesyncError;
use crate::failpoints;
use crate::flow::DesyncDesign;
use crate::model::{ControlModel, EnvironmentSpec, ModelDelays};
use crate::options::DesyncOptions;
use crate::submit::{stage_trace, Interrupt};
use crate::verify::{
    packed_sync_reference_run_with_model, sim_config_from, sync_reference_run_with_model,
    verify_flow_equivalence_packed_with_parts, verify_flow_equivalence_with_parts,
    EquivalenceReport, MultiSeedReport,
};
use desync_lint::{lint_design, LintReport};
use desync_netlist::{CellLibrary, Netlist, NetlistError};
use desync_sim::{CompiledModel, PackedVectorSource, SimRun, VectorSource};
use desync_sta::{ConeArrivals, MatchedDelay, Sta, TimingConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five stages of the desynchronization pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Flip-flops grouped into latch clusters ([`ClusterGraph`]).
    Clustered,
    /// Flip-flops split into master/slave latch pairs ([`LatchDesign`]).
    Latched,
    /// STA run and one matched delay sized per cluster edge
    /// ([`TimingTable`]).
    Timed,
    /// Handshake controllers generated and the timed marked-graph model
    /// composed and checked ([`ControlNetwork`]).
    Controlled,
    /// Flow equivalence against the synchronous reference established by
    /// gate-level co-simulation ([`EquivalenceReport`]).
    Verified,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 5] = [
        Stage::Clustered,
        Stage::Latched,
        Stage::Timed,
        Stage::Controlled,
        Stage::Verified,
    ];

    /// Position of the stage in the pipeline (0-based).
    pub fn index(self) -> usize {
        match self {
            Stage::Clustered => 0,
            Stage::Latched => 1,
            Stage::Timed => 2,
            Stage::Controlled => 3,
            Stage::Verified => 4,
        }
    }

    /// Short lower-case stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Clustered => "clustered",
            Stage::Latched => "latched",
            Stage::Timed => "timed",
            Stage::Controlled => "controlled",
            Stage::Verified => "verified",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The artifact of [`Stage::Timed`]: the synchronous clock period and one
/// sized matched delay (plus launch overhead) per cluster edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingTable {
    /// Minimum clock period of the synchronous baseline (from STA), ps.
    pub sync_clock_period_ps: f64,
    /// Matched delay sized for each cluster edge `(from, to)`.
    pub matched_delays: HashMap<(usize, usize), MatchedDelay>,
    /// Per cluster edge: the time from the source slave latch opening until
    /// its output carries the forwarded data item, ps.
    pub launch_overhead_ps: HashMap<(usize, usize), f64>,
    /// Delay budgets of the environment arcs. Always computed; whether the
    /// control model actually includes the environment controller pair is
    /// decided by the `environment` option at the [`Stage::Controlled`]
    /// transition, so toggling that knob does not re-run timing.
    pub environment: EnvironmentSpec,
}

impl TimingTable {
    /// Total delay cells across all matched-delay lines.
    pub fn total_delay_cells(&self) -> usize {
        self.matched_delays.values().map(|m| m.num_cells).sum()
    }

    /// The per-edge forward-arc delay budget handed to the control model:
    /// matched delay plus launch overhead.
    pub fn edge_delay_ps(&self) -> HashMap<(usize, usize), f64> {
        self.matched_delays
            .iter()
            .map(|(&edge, md)| {
                let launch = self.launch_overhead_ps.get(&edge).copied().unwrap_or(0.0);
                (edge, md.achieved_ps + launch)
            })
            .collect()
    }
}

/// The artifact of [`Stage::Controlled`]: the gate-level controller /
/// matched-delay overhead netlist and the timed marked-graph control model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlNetwork {
    /// Overhead netlist: handshake controllers (`ctl_*`) and matched delay
    /// lines (`md_*`), for area/power accounting.
    pub overhead: Netlist,
    /// The generated controllers (two per cluster).
    pub controllers: Vec<ControllerImpl>,
    /// The composed, timed marked-graph model (live and safe by
    /// construction; both are re-checked when the stage runs).
    pub model: ControlModel,
}

impl ControlNetwork {
    /// Total cells across all controllers.
    pub fn controller_cells(&self) -> usize {
        self.controllers.iter().map(ControllerImpl::num_cells).sum()
    }
}

impl crate::store::Weigh for TimingTable {
    /// Weight: one unit per sized edge, launch-overhead record and
    /// environment budget entry.
    fn weight(&self) -> usize {
        self.matched_delays.len()
            + self.launch_overhead_ps.len()
            + self.environment.input_delay_ps.len()
            + self.environment.output_delay_ps.len()
    }
}

impl crate::store::Weigh for ControlNetwork {
    /// Weight: the overhead netlist (cells and nets) plus the marked-graph
    /// model's transitions and places.
    fn weight(&self) -> usize {
        self.overhead.num_cells()
            + self.overhead.num_nets()
            + self.model.graph().num_transitions()
            + self.model.graph().num_places()
    }
}

/// Per-stage execution statistics of one [`DesyncFlow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage.
    pub stage: Stage,
    /// How many times the stage has executed over the flow's lifetime
    /// (greater than one after option changes invalidated it).
    pub runs: usize,
    /// How many times the stage was served from the flow's store (an
    /// attached [`DesyncEngine`]'s, or a detached flow's private one)
    /// instead of executing.
    pub cache_hits: usize,
    /// Wall time of the most recent execution.
    pub last_wall: Duration,
    /// Wall time summed over all executions.
    pub total_wall: Duration,
    /// Whether the stage's artifact is currently cached (not invalidated).
    pub cached: bool,
}

/// Execution statistics and headline artifact numbers of a [`DesyncFlow`],
/// for benchmark logs and reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Name of the netlist under desynchronization.
    pub netlist: String,
    /// One entry per stage, in execution order.
    pub stages: Vec<StageReport>,
    /// Number of clusters, once [`Stage::Clustered`] has run.
    pub clusters: Option<usize>,
    /// Number of cluster edges, once [`Stage::Clustered`] has run.
    pub cluster_edges: Option<usize>,
    /// Latches in the converted datapath, once [`Stage::Latched`] has run.
    pub latches: Option<usize>,
    /// Total matched-delay cells, once [`Stage::Timed`] has run.
    pub matched_delay_cells: Option<usize>,
    /// Synchronous clock period (ps), once [`Stage::Timed`] has run.
    pub sync_period_ps: Option<f64>,
    /// Desynchronized cycle time (ps), once [`Stage::Controlled`] has run.
    pub cycle_time_ps: Option<f64>,
    /// Flow-equivalence verdict, once [`Stage::Verified`] has run.
    pub flow_equivalent: Option<bool>,
}

impl FlowReport {
    /// Wall time summed over every stage execution of the flow's lifetime.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.total_wall).sum()
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow report for `{}`", self.netlist)?;
        writeln!(
            f,
            "  {:<12} {:>5} {:>5} {:>12} {:>12}  artifact",
            "stage", "runs", "hits", "last [us]", "total [us]"
        )?;
        for s in &self.stages {
            let artifact = match s.stage {
                Stage::Clustered => match (self.clusters, self.cluster_edges) {
                    (Some(c), Some(e)) => format!("{c} clusters, {e} edges"),
                    _ => "—".into(),
                },
                Stage::Latched => self
                    .latches
                    .map(|l| format!("{l} latches"))
                    .unwrap_or_else(|| "—".into()),
                Stage::Timed => match (self.matched_delay_cells, self.sync_period_ps) {
                    (Some(c), Some(p)) => format!("{c} delay cells, sync period {p:.1} ps"),
                    _ => "—".into(),
                },
                Stage::Controlled => self
                    .cycle_time_ps
                    .map(|c| format!("cycle time {c:.1} ps"))
                    .unwrap_or_else(|| "—".into()),
                Stage::Verified => self
                    .flow_equivalent
                    .map(|eq| format!("flow equivalent: {eq}"))
                    .unwrap_or_else(|| "—".into()),
            };
            let stale = if s.cached || (s.runs == 0 && s.cache_hits == 0) {
                ""
            } else {
                " (stale)"
            };
            writeln!(
                f,
                "  {:<12} {:>5} {:>5} {:>12} {:>12}  {}{}",
                s.stage.name(),
                s.runs,
                s.cache_hits,
                s.last_wall.as_micros(),
                s.total_wall.as_micros(),
                artifact,
                stale,
            )?;
        }
        write!(f, "  total wall time: {} us", self.total_wall().as_micros())
    }
}

/// The staged desynchronization pipeline, bound to one netlist and library.
///
/// See the [module documentation](self) for the stage/artifact table.
/// [`DesyncFlow::design`] runs every construction stage still missing and
/// bundles the artifacts into a [`DesyncDesign`].
///
/// # Example
///
/// ```
/// use desync_core::{DesyncFlow, DesyncOptions, Protocol};
/// use desync_netlist::{CellKind, CellLibrary, Netlist};
///
/// # fn main() -> Result<(), desync_core::DesyncError> {
/// let mut n = Netlist::new("pipe");
/// let clk = n.add_input("clk");
/// let a = n.add_input("a");
/// let q0 = n.add_net("q0");
/// let w = n.add_net("w");
/// let q1 = n.add_output("q1");
/// n.add_dff("r0", a, clk, q0).unwrap();
/// n.add_gate("g0", CellKind::Not, &[q0], w).unwrap();
/// n.add_dff("r1", w, clk, q1).unwrap();
/// let library = CellLibrary::generic_90nm();
///
/// let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default())?;
/// // Inspect intermediate artifacts stage by stage.
/// assert_eq!(flow.clustered()?.len(), 2);
/// assert!(flow.timed()?.sync_clock_period_ps > 0.0);
/// // Changing the protocol re-runs only controller synthesis.
/// flow.set_protocol(Protocol::NonOverlapping)?;
/// let design = flow.design()?;
/// assert!(design.control_model().is_live());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesyncFlow<'a> {
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    options: DesyncOptions,
    /// The store every artifact is fetched from: the attached engine's, or
    /// the flow's private one.
    engine: EngineHandle<'a>,
    /// The interrupt condition (cancellation + deadline) checked at every
    /// stage boundary; defaults to never firing for plain flows.
    interrupt: Interrupt,
    stimulus: Option<VectorSource>,
    verify_cycles: usize,
    sync_run_hits: usize,
    /// The pre-flight lint report (fetched once per flow).
    lint: Option<Arc<LintReport>>,
    clustered: Option<Arc<ClusterGraph>>,
    latched: Option<Arc<LatchDesign>>,
    timed: Option<Arc<TimingTable>>,
    controlled: Option<Arc<ControlNetwork>>,
    assembled: Option<DesyncDesign>,
    verified: Option<EquivalenceReport>,
    /// Runs, store hits and wall times per stage, in pipeline order
    /// (`cached` is filled in by [`DesyncFlow::report`]).
    stages: [StageReport; 5],
}

impl<'a> DesyncFlow<'a> {
    /// Default number of captures compared by [`DesyncFlow::verified`] when
    /// [`DesyncFlow::set_verification`] was not called.
    pub const DEFAULT_VERIFY_CYCLES: usize = 16;

    /// Creates a detached flow over `netlist` with validated `options`.
    ///
    /// No stage runs yet; stages execute lazily on first access. The flow
    /// owns a private unbounded artifact store, so a stage revisited after
    /// an option change (a margin set and then set back, say) is served
    /// from it instead of recomputed.
    ///
    /// # Errors
    ///
    /// [`DesyncError::InvalidOptions`] when a knob fails
    /// [`DesyncOptions::validate`].
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        options: DesyncOptions,
    ) -> Result<Self, DesyncError> {
        Self::build(netlist, library, options, None)
    }

    /// Creates a flow attached to a [`DesyncEngine`]: every artifact comes
    /// from the engine's cross-flow store (published there on a miss)
    /// instead of a private one. [`DesyncEngine::flow`] is the ergonomic
    /// spelling of the same call.
    ///
    /// The produced artifacts and [`DesyncDesign`] are identical to a
    /// detached flow's — the engine only changes *where* they come from.
    /// Per-flow cache hits are visible through [`DesyncFlow::cache_hits`]
    /// and the [`FlowReport`].
    ///
    /// # Errors
    ///
    /// [`DesyncError::InvalidOptions`] when a knob fails
    /// [`DesyncOptions::validate`].
    pub fn with_engine(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        options: DesyncOptions,
        engine: &'a DesyncEngine,
    ) -> Result<Self, DesyncError> {
        Self::build(netlist, library, options, Some(engine))
    }

    fn build(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        options: DesyncOptions,
        engine: Option<&'a DesyncEngine>,
    ) -> Result<Self, DesyncError> {
        options.validate()?;
        Ok(Self {
            netlist,
            library,
            options,
            engine: engine.map_or_else(EngineHandle::private, |e| e.attach(netlist, library)),
            interrupt: Interrupt::none(),
            stimulus: None,
            verify_cycles: Self::DEFAULT_VERIFY_CYCLES,
            sync_run_hits: 0,
            lint: None,
            clustered: None,
            latched: None,
            timed: None,
            controlled: None,
            assembled: None,
            verified: None,
            stages: Stage::ALL.map(|stage| StageReport {
                stage,
                runs: 0,
                cache_hits: 0,
                last_wall: Duration::ZERO,
                total_wall: Duration::ZERO,
                cached: false,
            }),
        })
    }

    /// The netlist under desynchronization.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The cell library in use.
    pub fn library(&self) -> &'a CellLibrary {
        self.library
    }

    /// The options currently in effect.
    pub fn options(&self) -> &DesyncOptions {
        &self.options
    }

    // ---- option changes and invalidation --------------------------------

    /// Replaces the whole option set, invalidating exactly the stages whose
    /// inputs changed (see the table on [`DesyncOptions`]). Cached artifacts
    /// of earlier stages survive and are reused on the next access.
    ///
    /// # Errors
    ///
    /// [`DesyncError::InvalidOptions`] when the new options fail
    /// [`DesyncOptions::validate`]; the flow keeps its previous options and
    /// artifacts in that case.
    pub fn set_options(&mut self, options: DesyncOptions) -> Result<&mut Self, DesyncError> {
        options.validate()?;
        if let Some(stage) = earliest_invalidated(&self.options, &options) {
            self.invalidate_from(stage);
        }
        self.options = options;
        Ok(self)
    }

    /// Changes the clustering strategy (invalidates from
    /// [`Stage::Clustered`]).
    ///
    /// # Errors
    ///
    /// See [`DesyncFlow::set_options`].
    pub fn set_clustering(
        &mut self,
        clustering: crate::options::ClusteringStrategy,
    ) -> Result<&mut Self, DesyncError> {
        self.set_options(self.options.with_clustering(clustering))
    }

    /// Changes the matched-delay margin (invalidates from [`Stage::Timed`]).
    ///
    /// # Errors
    ///
    /// See [`DesyncFlow::set_options`].
    pub fn set_margin(&mut self, margin: f64) -> Result<&mut Self, DesyncError> {
        self.set_options(self.options.with_margin(margin))
    }

    /// Changes the handshake protocol (invalidates from
    /// [`Stage::Controlled`]).
    ///
    /// # Errors
    ///
    /// See [`DesyncFlow::set_options`].
    pub fn set_protocol(
        &mut self,
        protocol: crate::controller::Protocol,
    ) -> Result<&mut Self, DesyncError> {
        self.set_options(self.options.with_protocol(protocol))
    }

    /// Enables or disables the explicit environment model (invalidates from
    /// [`Stage::Controlled`] — the environment delay budgets are always
    /// computed by the timing stage; the knob only controls whether the
    /// control model includes the environment controller pair).
    ///
    /// # Errors
    ///
    /// See [`DesyncFlow::set_options`].
    pub fn set_environment(&mut self, environment: bool) -> Result<&mut Self, DesyncError> {
        self.set_options(self.options.with_environment(environment))
    }

    /// Changes the timing parameters (invalidates from [`Stage::Timed`]).
    ///
    /// # Errors
    ///
    /// See [`DesyncFlow::set_options`].
    pub fn set_timing(&mut self, timing: TimingConfig) -> Result<&mut Self, DesyncError> {
        self.set_options(self.options.with_timing(timing))
    }

    /// Sets the stimulus and capture count used by [`DesyncFlow::verified`]
    /// (invalidates only [`Stage::Verified`]).
    ///
    /// Required before [`DesyncFlow::verified`] on any netlist with data
    /// inputs; self-stimulating circuits (clock as the only input, like
    /// counters) may skip it.
    pub fn set_verification(&mut self, stimulus: VectorSource, cycles: usize) -> &mut Self {
        self.stimulus = Some(stimulus);
        self.verify_cycles = cycles;
        self.invalidate_from(Stage::Verified);
        self
    }

    /// Attaches an [`Interrupt`] (cancellation token and/or deadline) to the
    /// flow. Every stage accessor checks it at entry — i.e. at stage
    /// *boundaries* — and returns [`DesyncError::Cancelled`] /
    /// [`DesyncError::DeadlineExceeded`] instead of computing further.
    /// Cancellation is cooperative: a stage already executing runs to
    /// completion (and its artifact may still be published to an attached
    /// engine, where it benefits other requests).
    ///
    /// [`ServiceQueue`](crate::ServiceQueue) sets this on every request's
    /// flow; plain flows default to an interrupt that never fires.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) -> &mut Self {
        self.interrupt = interrupt;
        self
    }

    /// Drops the flow's artifacts of `stage` and every later stage. On next
    /// access each is fetched again from the flow's store, and recomputed
    /// only if the store lacks it.
    pub fn invalidate_from(&mut self, stage: Stage) {
        if stage <= Stage::Clustered {
            self.clustered = None;
        }
        if stage <= Stage::Latched {
            self.latched = None;
        }
        if stage <= Stage::Timed {
            self.timed = None;
        }
        if stage <= Stage::Controlled {
            self.controlled = None;
            self.assembled = None;
        }
        self.verified = None;
    }

    /// The deepest stage whose artifact is currently cached, or `None`
    /// before any stage has run.
    pub fn computed_through(&self) -> Option<Stage> {
        if self.verified.is_some() {
            Some(Stage::Verified)
        } else if self.controlled.is_some() {
            Some(Stage::Controlled)
        } else if self.timed.is_some() {
            Some(Stage::Timed)
        } else if self.latched.is_some() {
            Some(Stage::Latched)
        } else if self.clustered.is_some() {
            Some(Stage::Clustered)
        } else {
            None
        }
    }

    /// How many times `stage` has executed over the flow's lifetime.
    ///
    /// A stage served from the flow's store does **not** count as a run —
    /// see [`DesyncFlow::cache_hits`].
    pub fn stage_runs(&self, stage: Stage) -> usize {
        self.stages[stage.index()].runs
    }

    /// How many times `stage` was served from the flow's store (an attached
    /// [`DesyncEngine`]'s, or a detached flow's private one) instead of
    /// executing.
    ///
    /// Always zero for [`Stage::Verified`], which is never cached.
    pub fn cache_hits(&self, stage: Stage) -> usize {
        self.stages[stage.index()].cache_hits
    }

    // ---- stage accessors ------------------------------------------------

    /// The static pre-flight lint report for the input netlist, running the
    /// full `desync-lint` design suite
    /// ([`lint_design`]) on first access.
    ///
    /// The report is a pure function of the netlist alone (options are
    /// validated separately when the flow is constructed), so it is stored
    /// under the netlist identity alone — a service admitting many requests
    /// over the same design to one engine lints it exactly once.
    ///
    /// The accessor itself never fails on a dirty design; callers decide
    /// what the report means. [`DesyncService`](crate::DesyncService)
    /// rejects designs whose report is not
    /// [clean](LintReport::is_clean) with [`DesyncError::LintRejected`]
    /// before any stage computes. The construction stages keep their own
    /// per-stage error behaviour for direct flow users.
    ///
    /// # Errors
    ///
    /// This pre-flight itself cannot fail; the `Result` keeps the accessor
    /// signatures uniform across stages.
    pub fn lint(&mut self) -> Result<Arc<LintReport>, DesyncError> {
        if self.lint.is_none() {
            self.interrupt.check()?;
            let netlist = self.netlist;
            let (report, _) = self.engine.fetch(self.engine.lint_key(), || {
                Ok(Arc::new(lint_design(netlist)))
            })?;
            self.lint = Some(report);
        }
        Ok(Arc::clone(self.lint.as_ref().expect("just computed")))
    }

    /// The cluster graph, running [`Stage::Clustered`] if needed.
    ///
    /// # Errors
    ///
    /// This stage itself cannot fail; the `Result` keeps the accessor
    /// signatures uniform across stages.
    pub fn clustered(&mut self) -> Result<&ClusterGraph, DesyncError> {
        if self.clustered.is_none() {
            let netlist = self.netlist;
            let clustering = self.options.clustering;
            let graph = self.fetch_stage(Stage::Clustered, "stage::clustered", || {
                Ok(ClusterGraph::build(netlist, clustering))
            })?;
            self.clustered = Some(graph);
        }
        Ok(self.clustered.as_deref().expect("just computed"))
    }

    /// The latch-converted datapath, running stages through
    /// [`Stage::Latched`] if needed.
    ///
    /// # Errors
    ///
    /// [`DesyncError::Netlist`] / [`DesyncError::NoRegisters`] /
    /// [`DesyncError::AlreadyLatchBased`] when the input netlist is not a
    /// valid single-clock flip-flop design.
    pub fn latched(&mut self) -> Result<&LatchDesign, DesyncError> {
        if self.latched.is_none() {
            self.clustered()?;
            let netlist = self.netlist;
            let clusters = Arc::clone(self.clustered.as_ref().expect("clustered stage ran"));
            let design = self.fetch_stage(Stage::Latched, "stage::latched", || {
                to_desynchronized_datapath(netlist, &clusters)
            })?;
            self.latched = Some(design);
        }
        Ok(self.latched.as_deref().expect("just computed"))
    }

    /// The timing table, running stages through [`Stage::Timed`] if needed.
    ///
    /// The stage is internally split: the expensive arrival-time
    /// propagation lives in a margin-independent [`SizingAnalysis`] (its own
    /// artifact in the flow's store), and the margin knob only *re-binds*
    /// matched delays from it — so a margin sweep runs STA once per netlist
    /// structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DesyncFlow::latched`].
    pub fn timed(&mut self) -> Result<&TimingTable, DesyncError> {
        if self.timed.is_none() {
            self.latched()?;
            let (netlist, library, options) = (self.netlist, self.library, self.options);
            let clusters = Arc::clone(self.clustered.as_ref().expect("clustered stage ran"));
            let engine = self.engine.clone();
            let table = self.fetch_stage(Stage::Timed, "stage::timed", || {
                let key = engine.sizing_key(options.sizing_analysis_prefix());
                let (analysis, _) = engine.fetch(key, || {
                    Ok(Arc::new(compute_sizing_analysis(
                        netlist, library, &clusters, &options,
                    )))
                })?;
                Ok(bind_timing(&analysis, &options, library))
            })?;
            self.timed = Some(table);
        }
        Ok(self.timed.as_deref().expect("just computed"))
    }

    /// The controller network and control model, running stages through
    /// [`Stage::Controlled`] if needed.
    ///
    /// # Errors
    ///
    /// Earlier-stage errors, plus [`DesyncError::ModelCheck`] when the
    /// composed model fails [`ControlModel::lint`] (an internal error — the
    /// construction is correct by design for valid inputs); the error
    /// carries the lint report, whose witness names the offending cycle.
    pub fn controlled(&mut self) -> Result<&ControlNetwork, DesyncError> {
        if self.controlled.is_none() {
            self.timed()?;
            let (netlist, options) = (self.netlist, self.options);
            let clusters = Arc::clone(self.clustered.as_ref().expect("clustered stage ran"));
            let timing = Arc::clone(self.timed.as_ref().expect("timed stage ran"));
            let network = self.fetch_stage(Stage::Controlled, "stage::controlled", || {
                build_control_network(netlist, &clusters, &timing, &options)
            })?;
            self.controlled = Some(network);
        }
        Ok(self.controlled.as_deref().expect("just computed"))
    }

    /// The flow-equivalence report, running stages through
    /// [`Stage::Verified`] if needed.
    ///
    /// Uses the stimulus and capture count from
    /// [`DesyncFlow::set_verification`]. A netlist whose only primary input
    /// is the clock (a counter, an LFSR) may skip `set_verification`; it is
    /// then checked over [`DesyncFlow::DEFAULT_VERIFY_CYCLES`] captures with
    /// no input vectors.
    ///
    /// # Errors
    ///
    /// Earlier-stage errors, plus:
    ///
    /// * [`DesyncError::EnvironmentRequired`] when the options disable the
    ///   environment model, before any stage runs.
    /// * [`DesyncError::MissingStimulus`] when the netlist has data inputs
    ///   but no stimulus was configured — without input vectors the
    ///   equivalence check would pass vacuously.
    /// * [`DesyncError::Netlist`] when the co-simulation testbench rejects
    ///   the netlist.
    pub fn verified(&mut self) -> Result<&EquivalenceReport, DesyncError> {
        if self.verified.is_none() {
            if !self.options.environment {
                return Err(DesyncError::EnvironmentRequired);
            }
            self.ensure_assembled()?;
            self.interrupt.check()?;
            stage_trace::enter("verified");
            if self.stimulus.is_none() {
                // Surface a clock problem as its own diagnostic instead of
                // swallowing it (the old `single_clock().ok()` made every
                // input of a multi-clock netlist — the clocks included —
                // count as a data input and reported `MissingStimulus`).
                // Today the Latched stage already rejects multi-clock
                // netlists before this line can run, so this is
                // defense-in-depth: it keeps the diagnostic correct even if
                // stage construction (e.g. cross-flow artifact sourcing)
                // ever stops funnelling through the conversion check.
                let clock = self.netlist.single_clock().map_err(DesyncError::Netlist)?;
                let has_data_inputs = self.netlist.inputs().iter().any(|&n| n != clock);
                if has_data_inputs {
                    return Err(DesyncError::MissingStimulus);
                }
            }
            let stimulus = self
                .stimulus
                .clone()
                .unwrap_or_else(|| VectorSource::constant(vec![]));
            let started = Instant::now();
            let reference = self.sync_reference(&stimulus)?;
            let async_model = self.async_model()?;
            let design = self.assembled.as_ref().expect("assembled above");
            let report = verify_flow_equivalence_with_parts(
                self.netlist,
                design,
                &stimulus,
                self.verify_cycles,
                (*reference).clone(),
                &async_model,
            )?;
            // The commit boundary: both simulations ran and agreed, the
            // report is about to become the flow's verified artifact.
            failpoints::hit("sim::commit")?;
            self.record(Stage::Verified, started);
            self.verified = Some(report);
        }
        Ok(self.verified.as_ref().expect("just computed"))
    }

    /// Packed multi-seed flow-equivalence verification: one bit-parallel
    /// co-simulation carries up to 64 independent stimulus lanes through
    /// [`Stage::Verified`] and returns a per-lane verdict.
    ///
    /// The packed kernel's event schedule is stimulus-independent under
    /// matched delays, so the whole campaign costs roughly one scalar
    /// verification; every lane's verdict is bit-identical to running
    /// [`DesyncFlow::verified`] with that lane's scalar stimulus. Unlike
    /// `verified`, the report is returned by value and not cached on the
    /// flow — campaigns own their reports, and the scalar
    /// [`EquivalenceReport`] stays the flow's verified artifact.
    ///
    /// # Errors
    ///
    /// Earlier-stage errors, plus [`DesyncError::EnvironmentRequired`] when
    /// the options disable the environment model (before any stage runs)
    /// and [`DesyncError::Netlist`] when a co-simulation testbench rejects
    /// the netlist.
    pub fn verify_packed(
        &mut self,
        stimulus: &PackedVectorSource,
        cycles: usize,
    ) -> Result<MultiSeedReport, DesyncError> {
        if !self.options.environment {
            return Err(DesyncError::EnvironmentRequired);
        }
        self.ensure_assembled()?;
        self.interrupt.check()?;
        stage_trace::enter("verified");
        let started = Instant::now();
        let netlist = self.netlist;
        let digest = stimulus.content_digest();
        let lanes = stimulus.lanes() as u32;
        let reference = self.fetch_sync_run(cycles, digest, lanes, |model, period_ps| {
            packed_sync_reference_run_with_model(netlist, model, period_ps, cycles, stimulus)
        })?;
        let async_model = self.async_model()?;
        let design = self.assembled.as_ref().expect("assembled above");
        let report = verify_flow_equivalence_packed_with_parts(
            self.netlist,
            design,
            stimulus,
            cycles,
            &reference,
            &async_model,
        )?;
        // One packed commit verifies all lanes: the failpoint fires once
        // per campaign point, not once per lane.
        failpoints::hit("sim::commit")?;
        self.record(Stage::Verified, started);
        Ok(report)
    }

    /// The synchronous reference run for the current verification inputs,
    /// fetched from the flow's store (simulated and published on a miss).
    ///
    /// The key covers everything the run is a function of — netlist and
    /// library identity, the simulation config, the STA clock period, the
    /// capture count and the stimulus digest — so protocol and margin
    /// sweeps, which change none of these, simulate the sync side once.
    fn sync_reference(&mut self, stimulus: &VectorSource) -> Result<Arc<SimRun>, DesyncError> {
        let cycles = self.verify_cycles;
        let digest = stimulus.content_digest();
        let netlist = self.netlist;
        self.fetch_sync_run(cycles, digest, 1, |model, period_ps| {
            sync_reference_run_with_model(netlist, model, period_ps, cycles, stimulus)
        })
    }

    /// Fetches a synchronous reference run — scalar (`lanes` 1) or packed —
    /// from the flow's store. On a miss, `simulate` runs over the
    /// synchronous netlist's compiled model, itself fetched from the store
    /// (the topology does not depend on how many stimulus lanes ride
    /// through it, so scalar and packed runs share it).
    fn fetch_sync_run<R: Cached>(
        &mut self,
        cycles: usize,
        digest: u64,
        lanes: u32,
        simulate: impl FnOnce(&Arc<CompiledModel>, f64) -> Result<R, NetlistError>,
    ) -> Result<Arc<R>, DesyncError> {
        let config = sim_config_from(&self.options.timing);
        let period_ps = self
            .timed
            .as_ref()
            .expect("timed stage ran before verify")
            .sync_clock_period_ps;
        let (netlist, library) = (self.netlist, self.library);
        let engine = &self.engine;
        let key = engine.sync_run_key(config, period_ps, cycles, digest, lanes);
        let (run, how) = engine.fetch(key, || {
            let (model, _) = engine.fetch(engine.compiled_key(None, config), || {
                Ok(Arc::new(CompiledModel::compile(netlist, library, config)))
            })?;
            Ok(Arc::new(
                simulate(&model, period_ps).map_err(DesyncError::Netlist)?,
            ))
        })?;
        self.sync_run_hits += usize::from(how.served());
        Ok(run)
    }

    /// The compiled model of the desynchronized datapath (the latch
    /// netlist): every sweep point over one design shares it — protocol and
    /// margin affect only the enable schedule that is *bound* onto the
    /// model, never the datapath structure the model compiles.
    fn async_model(&mut self) -> Result<Arc<CompiledModel>, DesyncError> {
        let config = sim_config_from(&self.options.timing);
        let prefix = self.options.stage_prefix(Stage::Latched);
        let key = self.engine.compiled_key(Some(prefix), config);
        let library = self.library;
        let design = self.assembled.as_ref().expect("assembled before verify");
        let (model, _) = self.engine.fetch(key, || {
            Ok(Arc::new(CompiledModel::compile(
                design.latch_netlist(),
                library,
                config,
            )))
        })?;
        Ok(model)
    }

    /// How many times [`DesyncFlow::verified`] or
    /// [`DesyncFlow::verify_packed`] reused a stored synchronous reference
    /// run instead of re-simulating the sync side.
    pub fn sync_run_cache_hits(&self) -> usize {
        self.sync_run_hits
    }

    /// Assembles a [`DesyncDesign`] from the cached artifacts, running
    /// stages through [`Stage::Controlled`] if needed.
    ///
    /// The result is a pure function of the netlist, library and options:
    /// a flow resumed after option changes assembles the design a fresh
    /// flow with the final options would. The assembled design is cached
    /// (and invalidated together with [`Stage::Controlled`]) and shares the
    /// flow's stage artifacts, so each call clones four `Arc`s and the
    /// design name; use [`DesyncFlow::designed`] when a reference is enough.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DesyncFlow::controlled`].
    pub fn design(&mut self) -> Result<DesyncDesign, DesyncError> {
        self.ensure_assembled()?;
        Ok(self.assembled.clone().expect("just assembled"))
    }

    /// Borrows the assembled [`DesyncDesign`] without cloning it, running
    /// stages through [`Stage::Controlled`] if needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DesyncFlow::controlled`].
    pub fn designed(&mut self) -> Result<&DesyncDesign, DesyncError> {
        self.ensure_assembled()?;
        Ok(self.assembled.as_ref().expect("just assembled"))
    }

    fn ensure_assembled(&mut self) -> Result<(), DesyncError> {
        if self.assembled.is_some() {
            return Ok(());
        }
        self.controlled()?;
        self.assembled = Some(DesyncDesign::from_parts(
            self.netlist.name().to_string(),
            self.options,
            self.clustered.clone().expect("clustered stage ran"),
            self.latched.clone().expect("latched stage ran"),
            self.timed.clone().expect("timed stage ran"),
            self.controlled.clone().expect("controlled stage ran"),
        ));
        Ok(())
    }

    /// Per-stage execution statistics and headline artifact numbers.
    pub fn report(&self) -> FlowReport {
        let stages = self
            .stages
            .iter()
            .map(|s| StageReport {
                cached: match s.stage {
                    Stage::Clustered => self.clustered.is_some(),
                    Stage::Latched => self.latched.is_some(),
                    Stage::Timed => self.timed.is_some(),
                    Stage::Controlled => self.controlled.is_some(),
                    Stage::Verified => self.verified.is_some(),
                },
                ..s.clone()
            })
            .collect();
        FlowReport {
            netlist: self.netlist.name().to_string(),
            stages,
            clusters: self.clustered.as_deref().map(ClusterGraph::len),
            cluster_edges: self.clustered.as_deref().map(|c| c.edges.len()),
            latches: self.latched.as_deref().map(|l| l.netlist.num_latches()),
            matched_delay_cells: self.timed.as_deref().map(TimingTable::total_delay_cells),
            sync_period_ps: self.timed.as_deref().map(|t| t.sync_clock_period_ps),
            cycle_time_ps: self.controlled.as_deref().map(|c| c.model.cycle_time_ps()),
            flow_equivalent: self.verified.as_ref().map(EquivalenceReport::is_equivalent),
        }
    }

    fn record(&mut self, stage: Stage, started: Instant) {
        self.record_elapsed(stage, started.elapsed());
    }

    fn record_elapsed(&mut self, stage: Stage, elapsed: Duration) {
        let s = &mut self.stages[stage.index()];
        s.runs += 1;
        s.last_wall = elapsed;
        s.total_wall += elapsed;
    }

    /// Fetches a construction stage's artifact from the flow's store after
    /// the stage-boundary interrupt check. On a miss `compute` runs behind
    /// the stage's failpoint `site` and counts as a run with its wall time;
    /// a store hit (resident, or coalesced onto another flow's computation)
    /// counts as a cache hit.
    fn fetch_stage<T: Cached>(
        &mut self,
        stage: Stage,
        site: &'static str,
        compute: impl FnOnce() -> Result<T, DesyncError>,
    ) -> Result<Arc<T>, DesyncError> {
        self.interrupt.check()?;
        stage_trace::enter(stage.name());
        let mut elapsed = None;
        let key = self.engine.stage_key(&self.options, stage);
        let (artifact, how) = self.engine.fetch(key, || {
            failpoints::hit(site)?;
            let started = Instant::now();
            let artifact = compute()?;
            elapsed = Some(started.elapsed());
            Ok(Arc::new(artifact))
        })?;
        if how.served() {
            self.stages[stage.index()].cache_hits += 1;
        } else {
            self.record_elapsed(
                stage,
                elapsed.expect("computed stages record their wall time"),
            );
        }
        Ok(artifact)
    }
}

/// The earliest stage whose inputs differ between two option sets.
///
/// Defined in terms of [`DesyncOptions::stage_prefix`] — the same canonical
/// knob → stage mapping that forms the options half of the
/// [`DesyncEngine`] cache keys, so flow invalidation and cross-flow cache
/// validity cannot drift apart.
fn earliest_invalidated(old: &DesyncOptions, new: &DesyncOptions) -> Option<Stage> {
    Stage::ALL
        .into_iter()
        .find(|&stage| old.stage_prefix(stage) != new.stage_prefix(stage))
}

// ---- Stage::Timed ------------------------------------------------------

/// The margin-independent half of [`Stage::Timed`]: the results of every
/// arrival-time propagation the stage needs, each edge and environment arc
/// carried as a **zero-margin matched delay** — the chain sized to cover
/// exactly the worst combinational arrival, with no safety margin applied
/// yet — plus launch overheads and the synchronous clock period.
///
/// A margin sweep shares one analysis per netlist structure and derives
/// each point's [`TimingTable`] through `bind_timing`, which
/// [`MatchedDelay::rebind`]s every base delay to the point's margin —
/// bit-identical to a from-scratch timing run at that margin (rebinding
/// re-sizes from the recorded combinational delay through the same
/// [`MatchedDelay::for_delay`] arithmetic). The flow's store (an attached
/// [`DesyncEngine`]'s or a detached flow's private one) holds analyses
/// under the margin-stripped Timed prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizingAnalysis {
    /// Minimum clock period of the synchronous baseline (from STA), ps.
    pub sync_clock_period_ps: f64,
    /// Zero-margin matched delay per cluster edge `(from, to)` (its
    /// `combinational_ps` is the edge's worst arrival).
    pub edge_base: HashMap<(usize, usize), MatchedDelay>,
    /// Launch overhead per cluster edge (see `compute_sizing_analysis`), ps.
    pub launch_overhead_ps: HashMap<(usize, usize), f64>,
    /// Zero-margin matched delay of the primary-input → register-data path
    /// per input-fed cluster.
    pub env_input_base: HashMap<usize, MatchedDelay>,
    /// Zero-margin matched delay of the register → primary-output path per
    /// output-feeding cluster.
    pub env_output_base: HashMap<usize, MatchedDelay>,
}

impl crate::store::Weigh for SizingAnalysis {
    /// Weight: one unit per analyzed edge and environment record.
    fn weight(&self) -> usize {
        self.edge_base.len()
            + self.launch_overhead_ps.len()
            + self.env_input_base.len()
            + self.env_output_base.len()
    }
}

/// Runs every arrival-time propagation of [`Stage::Timed`] on the calling
/// thread: one STA walk for the clock period, one forward-cone walk per
/// source cluster (serving both its outgoing edges and its output
/// environment arc) and one from the primary inputs. The result is
/// margin-free; see [`bind_timing`].
fn compute_sizing_analysis(
    netlist: &Netlist,
    library: &CellLibrary,
    clusters: &ClusterGraph,
    options: &DesyncOptions,
) -> SizingAnalysis {
    let sta = Sta::new(netlist, library, options.timing);
    let sync_clock_period_ps = sta.clock_period();
    let fanout = netlist.fanout_map();
    let mut successors = vec![Vec::new(); clusters.len()];
    for edge in &clusters.edges {
        successors[edge.from].push(edge.to);
    }

    let mut edge_base = HashMap::with_capacity(clusters.edges.len());
    let mut launch_overhead_ps = HashMap::with_capacity(clusters.edges.len());
    let mut env_output_base = HashMap::new();
    let mut cone = ConeArrivals::default();
    let mut src_outputs = Vec::new();
    for (src_idx, src) in clusters.clusters.iter().enumerate() {
        let targets = &successors[src_idx];
        let feeds_output = clusters.output_feeding[src_idx];
        if targets.is_empty() && !feeds_output {
            continue;
        }
        src_outputs.clear();
        src_outputs.extend(src.registers.iter().map(|&r| netlist.cell(r).output));
        sta.cone_arrival_from(&src_outputs, &mut cone);
        // Launch overhead: the time from the source slave latch opening
        // until its output carries the forwarded data item. In the worst
        // case the master latch captured its data right at its closing
        // edge, so the item still has to traverse the master latch (one
        // latch delay plus the wire to the slave) and then the slave latch
        // itself (one latch delay plus the wire load of its possibly high
        // fan-out output net).
        let max_fanout = src_outputs
            .iter()
            .map(|n| fanout[n.index()])
            .max()
            .unwrap_or(1)
            .max(1);
        let launch_ps = 2.0 * options.timing.latch_d_to_q_ps
            + options.timing.wire_delay_per_fanout_ps * (1 + max_fanout) as f64;
        for &dst_idx in targets {
            let mut worst = 0.0_f64;
            for &reg in &clusters.clusters[dst_idx].registers {
                if let Some(a) = netlist.cell(reg).data_net().and_then(|d| cone.get(d)) {
                    worst = worst.max(a);
                }
            }
            let edge = (src_idx, dst_idx);
            edge_base.insert(edge, MatchedDelay::for_delay(worst, 0.0, library));
            launch_overhead_ps.insert(edge, launch_ps);
        }
        if feeds_output {
            let worst = netlist
                .outputs()
                .iter()
                .filter_map(|&o| cone.get(o))
                .fold(0.0, f64::max);
            env_output_base.insert(src_idx, MatchedDelay::for_delay(worst, 0.0, library));
        }
    }

    // Environment arcs (the paper's auxiliary arcs): the worst arrival for
    // data travelling from the primary inputs into each input-fed cluster,
    // and (above) from each output-feeding cluster to the primary outputs.
    // Computed unconditionally so toggling `options.environment` (consumed
    // at the Controlled transition) never invalidates this stage.
    let mut env_input_base = HashMap::new();
    sta.cone_arrival_from(netlist.inputs(), &mut cone);
    for (idx, cluster) in clusters.clusters.iter().enumerate() {
        if !clusters.input_fed[idx] {
            continue;
        }
        let mut worst = 0.0_f64;
        for &reg in &cluster.registers {
            if let Some(a) = netlist.cell(reg).data_net().and_then(|d| cone.get(d)) {
                worst = worst.max(a);
            }
        }
        env_input_base.insert(idx, MatchedDelay::for_delay(worst, 0.0, library));
    }

    SizingAnalysis {
        sync_clock_period_ps,
        edge_base,
        launch_overhead_ps,
        env_input_base,
        env_output_base,
    }
}

/// Binds a [`SizingAnalysis`] to a concrete matched-delay margin:
/// [`MatchedDelay::rebind`]s every zero-margin base chain to the margin.
/// This is the cheap, margin-dependent half of [`Stage::Timed`] — a rebind
/// re-sizes from the recorded combinational delay through the same
/// arithmetic the unsplit stage applied, so the produced [`TimingTable`]
/// is bit-identical to a from-scratch run.
fn bind_timing(
    analysis: &SizingAnalysis,
    options: &DesyncOptions,
    library: &CellLibrary,
) -> TimingTable {
    let margin = options.matched_delay_margin;
    let matched_delays = analysis
        .edge_base
        .iter()
        .map(|(&edge, base)| (edge, base.rebind(margin, library)))
        .collect();
    let mut environment = EnvironmentSpec::default();
    for (&idx, base) in &analysis.env_input_base {
        let matched = base.rebind(margin, library);
        environment
            .input_delay_ps
            .insert(idx, matched.achieved_ps + options.timing.latch_d_to_q_ps);
    }
    for (&idx, base) in &analysis.env_output_base {
        let matched = base.rebind(margin, library);
        environment.output_delay_ps.insert(
            idx,
            matched.achieved_ps
                + 2.0 * options.timing.latch_d_to_q_ps
                + options.timing.wire_delay_per_fanout_ps,
        );
    }
    TimingTable {
        sync_clock_period_ps: analysis.sync_clock_period_ps,
        matched_delays,
        launch_overhead_ps: analysis.launch_overhead_ps.clone(),
        environment,
    }
}

// ---- Stage::Controlled -------------------------------------------------

fn build_control_network(
    netlist: &Netlist,
    clusters: &ClusterGraph,
    timing: &TimingTable,
    options: &DesyncOptions,
) -> Result<ControlNetwork, DesyncError> {
    // Gate-level controllers and matched-delay chains (the overhead netlist
    // used for area/power accounting).
    let mut overhead = Netlist::new(format!("{}_overhead", netlist.name()));
    let mut controllers = Vec::new();
    for cluster in &clusters.clusters {
        for parity in [Parity::Even, Parity::Odd] {
            let ctl = ControllerImpl::generate(
                &mut overhead,
                &cluster.name,
                parity,
                options.protocol,
                cluster.len(),
            )?;
            controllers.push(ctl);
        }
    }
    // One physical delay line per destination cluster, sized for its worst
    // incoming combinational block (the controller of the destination
    // combines the requests of all predecessors with a C-element and delays
    // the combined request once).
    let mut worst_per_destination: HashMap<usize, MatchedDelay> = HashMap::new();
    for (&(_, dst), matched) in &timing.matched_delays {
        let entry = worst_per_destination.entry(dst).or_insert(*matched);
        if matched.achieved_ps > entry.achieved_ps {
            *entry = *matched;
        }
    }
    let mut destinations: Vec<usize> = worst_per_destination.keys().copied().collect();
    destinations.sort_unstable();
    for dst in destinations {
        let matched = worst_per_destination[&dst];
        let prefix = format!("md_{}", clusters.clusters[dst].name);
        let req = overhead.add_input(format!("{prefix}_req"));
        let out = matched.instantiate(&mut overhead, &prefix, req)?;
        overhead.mark_output(out);
    }
    overhead.validate().map_err(DesyncError::Netlist)?;

    // The timed marked-graph control model.
    let model_delays = ModelDelays {
        controller_ps: options.controller_delay_ps,
        latch_ps: options.timing.latch_d_to_q_ps,
        pulse_width_ps: options.timing.latch_d_to_q_ps + options.controller_delay_ps,
    };
    let environment = options.environment.then_some(&timing.environment);
    let model = ControlModel::build_with_environment(
        clusters,
        options.protocol,
        &timing.edge_delay_ps(),
        environment,
        model_delays,
    );
    let report = model.lint();
    if !report.is_clean() {
        return Err(DesyncError::ModelCheck(report.to_string()));
    }
    Ok(ControlNetwork {
        overhead,
        controllers,
        model,
    })
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
    fn stages_run_lazily_and_exactly_once() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        assert_eq!(flow.computed_through(), None);
        for stage in Stage::ALL {
            assert_eq!(flow.stage_runs(stage), 0);
        }
        // Asking for the deepest stage runs every predecessor exactly once.
        flow.controlled().unwrap();
        assert_eq!(flow.computed_through(), Some(Stage::Controlled));
        for stage in [
            Stage::Clustered,
            Stage::Latched,
            Stage::Timed,
            Stage::Controlled,
        ] {
            assert_eq!(flow.stage_runs(stage), 1, "{stage}");
        }
        assert_eq!(flow.stage_runs(Stage::Verified), 0);
        // Re-access hits the cache.
        flow.clustered().unwrap();
        flow.timed().unwrap();
        flow.controlled().unwrap();
        for stage in [
            Stage::Clustered,
            Stage::Latched,
            Stage::Timed,
            Stage::Controlled,
        ] {
            assert_eq!(flow.stage_runs(stage), 1, "{stage}");
        }
    }

    #[test]
    fn changing_protocol_reruns_only_controlled() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        flow.set_protocol(Protocol::NonOverlapping).unwrap();
        assert_eq!(flow.computed_through(), Some(Stage::Timed));
        flow.controlled().unwrap();
        assert_eq!(flow.stage_runs(Stage::Clustered), 1);
        assert_eq!(flow.stage_runs(Stage::Latched), 1);
        assert_eq!(flow.stage_runs(Stage::Timed), 1);
        assert_eq!(flow.stage_runs(Stage::Controlled), 2);
    }

    #[test]
    fn changing_margin_reruns_timed_and_controlled_only() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        flow.set_margin(0.3).unwrap();
        assert_eq!(flow.computed_through(), Some(Stage::Latched));
        flow.controlled().unwrap();
        assert_eq!(flow.stage_runs(Stage::Clustered), 1);
        assert_eq!(flow.stage_runs(Stage::Latched), 1);
        assert_eq!(flow.stage_runs(Stage::Timed), 2);
        assert_eq!(flow.stage_runs(Stage::Controlled), 2);
    }

    #[test]
    fn changing_clustering_reruns_everything() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        flow.set_clustering(ClusteringStrategy::PerRegister)
            .unwrap();
        assert_eq!(flow.computed_through(), None);
        flow.controlled().unwrap();
        assert_eq!(flow.stage_runs(Stage::Clustered), 2);
        assert_eq!(flow.stage_runs(Stage::Latched), 2);
        assert_eq!(flow.stage_runs(Stage::Timed), 2);
        assert_eq!(flow.stage_runs(Stage::Controlled), 2);
    }

    #[test]
    fn unchanged_options_invalidate_nothing() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        let same = *flow.options();
        flow.set_options(same).unwrap();
        assert_eq!(flow.computed_through(), Some(Stage::Controlled));
        assert_eq!(flow.stage_runs(Stage::Controlled), 1);
    }

    #[test]
    fn resumed_design_equals_a_fresh_flow() {
        let n = pipeline3();
        let library = lib();
        let fresh_default = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        // A flow walked stage by stage assembles the same design...
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.clustered().unwrap();
        flow.timed().unwrap();
        let via_stages = flow.design().unwrap();
        assert_eq!(fresh_default, via_stages);
        // ...and after a knob change and resume, the design matches a fresh
        // flow with the final options.
        flow.set_margin(0.25).unwrap();
        let resumed = flow.design().unwrap();
        let fresh = DesyncFlow::new(&n, &library, DesyncOptions::default().with_margin(0.25))
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(resumed, fresh);
    }

    /// Two register banks `r[0..1]` and `s[0..1]` with NAND/NOT/XOR logic
    /// between them: by-prefix clustering gives two clusters, per-register
    /// clustering four.
    fn two_banks() -> Netlist {
        let mut n = Netlist::new("banks");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let r0 = n.add_net("r0_q");
        let r1 = n.add_net("r1_q");
        let nand = n.add_net("nand_y");
        let not = n.add_net("not_y");
        let xor = n.add_net("xor_y");
        let s0 = n.add_output("s0_q");
        let s1 = n.add_output("s1_q");
        n.add_dff("r[0]", a, clk, r0).unwrap();
        n.add_dff("r[1]", b, clk, r1).unwrap();
        n.add_gate("nand", CellKind::Nand, &[r0, r1], nand).unwrap();
        n.add_gate("not", CellKind::Not, &[nand], not).unwrap();
        n.add_gate("xor", CellKind::Xor, &[not, r1], xor).unwrap();
        n.add_dff("s[0]", not, clk, s0).unwrap();
        n.add_dff("s[1]", xor, clk, s1).unwrap();
        n
    }

    /// Whether two flows' artifacts of `stage` differ.
    fn artifacts_differ(stage: Stage, a: &mut DesyncFlow, b: &mut DesyncFlow) -> bool {
        match stage {
            Stage::Clustered => a.clustered().unwrap() != b.clustered().unwrap(),
            Stage::Latched => a.latched().unwrap() != b.latched().unwrap(),
            Stage::Timed => a.timed().unwrap() != b.timed().unwrap(),
            Stage::Controlled => a.controlled().unwrap() != b.controlled().unwrap(),
            Stage::Verified => unreachable!("no knob is keyed by verification alone"),
        }
    }

    #[test]
    fn every_keyed_knob_changes_its_stage_artifact() {
        let base = DesyncOptions::default();
        // Exhaustive destructuring: a new knob fails to compile here until
        // it gets a variant below.
        let DesyncOptions {
            protocol: _,
            clustering: _,
            matched_delay_margin: _,
            controller_delay_ps: _,
            environment: _,
            timing:
                TimingConfig {
                    wire_delay_per_fanout_ps: _,
                    setup_ps: _,
                    clk_to_q_ps: _,
                    latch_d_to_q_ps: _,
                },
        } = base;
        let timing = base.timing;
        let variants = [
            (
                "clustering",
                base.with_clustering(ClusteringStrategy::PerRegister),
            ),
            (
                "timing.wire_delay_per_fanout_ps",
                base.with_timing(TimingConfig {
                    wire_delay_per_fanout_ps: 9.0,
                    ..timing
                }),
            ),
            (
                "timing.setup_ps",
                base.with_timing(TimingConfig {
                    setup_ps: 90.0,
                    ..timing
                }),
            ),
            (
                "timing.clk_to_q_ps",
                base.with_timing(TimingConfig {
                    clk_to_q_ps: 150.0,
                    ..timing
                }),
            ),
            (
                "timing.latch_d_to_q_ps",
                base.with_timing(TimingConfig {
                    latch_d_to_q_ps: 95.0,
                    ..timing
                }),
            ),
            ("matched_delay_margin", base.with_margin(1.0)),
            ("protocol", base.with_protocol(Protocol::NonOverlapping)),
            ("controller_delay_ps", base.with_controller_delay_ps(200.0)),
            ("environment", base.with_environment(false)),
        ];
        let n = two_banks();
        let library = lib();
        let mut default_flow = DesyncFlow::new(&n, &library, base).unwrap();
        for (knob, options) in variants {
            let stage = earliest_invalidated(&base, &options)
                .unwrap_or_else(|| panic!("{knob} is in no stage prefix"));
            let mut changed = DesyncFlow::new(&n, &library, options).unwrap();
            assert!(
                artifacts_differ(stage, &mut default_flow, &mut changed),
                "{knob} is keyed from {stage} but leaves its artifact unchanged"
            );
        }
    }

    #[test]
    fn invalid_options_are_rejected_and_preserve_state() {
        let n = pipeline3();
        let library = lib();
        let err =
            DesyncFlow::new(&n, &library, DesyncOptions::default().with_margin(-1.0)).unwrap_err();
        assert!(matches!(err, DesyncError::InvalidOptions(_)));

        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        let err = flow.set_margin(-0.5).unwrap_err();
        assert!(matches!(err, DesyncError::InvalidOptions(_)));
        // The failed update left options and artifacts untouched.
        assert_eq!(flow.options().matched_delay_margin, 0.05);
        assert_eq!(flow.computed_through(), Some(Stage::Controlled));
    }

    #[test]
    fn verified_stage_reports_equivalence() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let a = n.find_net("a").unwrap();
        flow.set_verification(VectorSource::pseudo_random(vec![a], 11), 12);
        let report = flow.verified().unwrap();
        assert!(report.is_equivalent(), "{}", report.equivalence);
        assert_eq!(flow.stage_runs(Stage::Verified), 1);
        // A new stimulus invalidates only the verification.
        flow.set_verification(VectorSource::pseudo_random(vec![a], 13), 12);
        assert_eq!(flow.computed_through(), Some(Stage::Controlled));
        flow.verified().unwrap();
        assert_eq!(flow.stage_runs(Stage::Verified), 2);
        assert_eq!(flow.stage_runs(Stage::Controlled), 1);
    }

    #[test]
    fn report_tracks_runs_and_artifacts() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let empty = flow.report();
        assert_eq!(empty.stages.len(), 5);
        assert!(empty.stages.iter().all(|s| s.runs == 0 && !s.cached));
        assert_eq!(empty.clusters, None);

        flow.controlled().unwrap();
        let report = flow.report();
        assert_eq!(report.clusters, Some(3));
        assert_eq!(report.latches, Some(6));
        assert!(report.sync_period_ps.unwrap() > 0.0);
        assert!(report.cycle_time_ps.unwrap() > 0.0);
        assert_eq!(report.flow_equivalent, None);
        assert!(report.matched_delay_cells.unwrap() > 0);
        let text = report.to_string();
        assert!(text.contains("flow report for `pipe3`"), "{text}");
        assert!(text.contains("controlled"), "{text}");
    }

    #[test]
    fn artifacts_expose_stage_data() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        assert_eq!(flow.clustered().unwrap().len(), 3);
        assert_eq!(flow.latched().unwrap().netlist.num_latches(), 6);
        let timed = flow.timed().unwrap();
        assert_eq!(timed.matched_delays.len(), 2);
        assert!(timed
            .matched_delays
            .values()
            .all(MatchedDelay::covers_logic));
        assert_eq!(timed.edge_delay_ps().len(), 2);
        assert!(!timed.environment.input_delay_ps.is_empty());
        let network = flow.controlled().unwrap();
        assert_eq!(network.controllers.len(), 6);
        assert!(network.controller_cells() > 0);
        assert!(network.model.is_live() && network.model.is_safe());
        assert!(network.overhead.validate().is_ok());
    }

    #[test]
    fn verified_requires_stimulus_for_netlists_with_data_inputs() {
        let n = pipeline3(); // has data input `a`
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        assert_eq!(flow.verified().unwrap_err(), DesyncError::MissingStimulus);
        // Construction stages still completed; only verification refused.
        assert_eq!(flow.computed_through(), Some(Stage::Controlled));
        // A self-stimulating circuit (clock-only inputs) verifies without an
        // explicit stimulus.
        let mut counter = Netlist::new("cnt");
        let clk = counter.add_input("clk");
        let q = counter.add_net("q");
        let d = counter.add_net("d");
        counter.add_gate("inv", CellKind::Not, &[q], d).unwrap();
        counter.add_dff("r", d, clk, q).unwrap();
        counter.mark_output(q);
        let mut flow = DesyncFlow::new(&counter, &library, DesyncOptions::default()).unwrap();
        assert!(flow.verified().unwrap().is_equivalent());
    }

    #[test]
    fn environment_toggle_reruns_only_controlled() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        assert!(flow.controlled().unwrap().model.has_environment());
        flow.set_environment(false).unwrap();
        assert_eq!(flow.computed_through(), Some(Stage::Timed));
        assert!(!flow.controlled().unwrap().model.has_environment());
        assert_eq!(flow.stage_runs(Stage::Timed), 1);
        assert_eq!(flow.stage_runs(Stage::Controlled), 2);
    }

    #[test]
    fn designed_borrows_the_cached_assembly() {
        let n = pipeline3();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let cycle = flow.designed().unwrap().cycle_time_ps();
        // design() hands out a clone of the same cached assembly.
        let owned = flow.design().unwrap();
        assert_eq!(owned.cycle_time_ps(), cycle);
        // Invalidation drops the cached assembly along with Controlled.
        flow.set_protocol(Protocol::NonOverlapping).unwrap();
        let after = flow.designed().unwrap().options().protocol;
        assert_eq!(after, Protocol::NonOverlapping);
    }

    #[test]
    fn engine_serves_second_flow_without_recomputing() {
        let n = pipeline3();
        let library = lib();
        let engine = crate::engine::DesyncEngine::with_workers(2);

        let mut first = engine.flow(&n, &library, DesyncOptions::default()).unwrap();
        let design_first = first.design().unwrap();
        for stage in [
            Stage::Clustered,
            Stage::Latched,
            Stage::Timed,
            Stage::Controlled,
        ] {
            assert_eq!(first.stage_runs(stage), 1, "{stage}");
            assert_eq!(first.cache_hits(stage), 0, "{stage}");
        }

        // The second flow over the identical request recomputes zero stages.
        let mut second = engine.flow(&n, &library, DesyncOptions::default()).unwrap();
        let design_second = second.design().unwrap();
        assert_eq!(design_first, design_second);
        for stage in [
            Stage::Clustered,
            Stage::Latched,
            Stage::Timed,
            Stage::Controlled,
        ] {
            assert_eq!(second.stage_runs(stage), 0, "{stage}");
            assert_eq!(second.cache_hits(stage), 1, "{stage}");
        }
        let report = engine.report();
        assert_eq!(report.netlists, 1);
        assert_eq!(report.libraries, 1);
        assert_eq!(report.total_hits(), 4);
        assert_eq!(report.total_misses(), 4);
        assert!(report.stages.iter().all(|s| s.entries == 1));
        let text = report.to_string();
        assert!(text.contains("desync engine"), "{text}");
        assert!(text.contains("hit rate"), "{text}");
    }

    #[test]
    fn engine_cache_keys_follow_option_prefixes() {
        let n = pipeline3();
        let library = lib();
        let engine = crate::engine::DesyncEngine::with_workers(1);
        engine
            .flow(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();

        // A different protocol shares everything up to Timed but must
        // re-synthesize controllers.
        let mut other = engine
            .flow(
                &n,
                &library,
                DesyncOptions::default().with_protocol(Protocol::NonOverlapping),
            )
            .unwrap();
        other.design().unwrap();
        assert_eq!(other.cache_hits(Stage::Clustered), 1);
        assert_eq!(other.cache_hits(Stage::Latched), 1);
        assert_eq!(other.cache_hits(Stage::Timed), 1);
        assert_eq!(other.cache_hits(Stage::Controlled), 0);
        assert_eq!(other.stage_runs(Stage::Controlled), 1);

        // A structurally different netlist misses everywhere.
        let mut m = pipeline3();
        m.set_name("other");
        let mut fresh = engine.flow(&m, &library, DesyncOptions::default()).unwrap();
        fresh.controlled().unwrap();
        for stage in [
            Stage::Clustered,
            Stage::Latched,
            Stage::Timed,
            Stage::Controlled,
        ] {
            assert_eq!(fresh.cache_hits(stage), 0, "{stage}");
            assert_eq!(fresh.stage_runs(stage), 1, "{stage}");
        }
        assert_eq!(engine.report().netlists, 2);
    }

    #[test]
    fn engine_flow_resumes_and_republishes_after_option_change() {
        let n = pipeline3();
        let library = lib();
        let engine = crate::engine::DesyncEngine::with_workers(1);
        let mut flow = engine.flow(&n, &library, DesyncOptions::default()).unwrap();
        flow.design().unwrap();
        // The margin change invalidates Timed onward; the re-run publishes
        // artifacts under the new key...
        flow.set_margin(0.3).unwrap();
        flow.design().unwrap();
        assert_eq!(flow.stage_runs(Stage::Timed), 2);
        // ...which a later flow with the same options picks up wholesale.
        let mut later = engine
            .flow(&n, &library, DesyncOptions::default().with_margin(0.3))
            .unwrap();
        let later_design = later.design().unwrap();
        assert_eq!(later.stage_runs(Stage::Timed), 0);
        assert_eq!(later.cache_hits(Stage::Timed), 1);
        // Cached artifacts equal a from-scratch computation.
        let fresh = DesyncFlow::new(&n, &library, DesyncOptions::default().with_margin(0.3))
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(later_design, fresh);
    }

    #[test]
    fn engine_clear_drops_artifacts_but_keeps_identities() {
        let n = pipeline3();
        let library = lib();
        let engine = crate::engine::DesyncEngine::with_workers(1);
        engine
            .flow(&n, &library, DesyncOptions::default())
            .unwrap()
            .controlled()
            .unwrap();
        assert!(engine.report().stages.iter().all(|s| s.entries == 1));
        engine.clear();
        let report = engine.report();
        assert!(report.stages.iter().all(|s| s.entries == 0));
        assert_eq!(report.netlists, 1);
        // Post-clear flows recompute and repopulate.
        let mut flow = engine.flow(&n, &library, DesyncOptions::default()).unwrap();
        flow.controlled().unwrap();
        assert_eq!(flow.cache_hits(Stage::Controlled), 0);
        assert_eq!(flow.stage_runs(Stage::Controlled), 1);
        assert!(engine.report().stages.iter().all(|s| s.entries == 1));
    }

    #[test]
    fn multi_clock_netlist_yields_clock_diagnostic_not_missing_stimulus() {
        // The user-visible contract: a multi-clock netlist must fail
        // `verified()` with a clock diagnostic, never with a misleading
        // `MissingStimulus`. (Today the error comes from the Latched stage's
        // conversion check; the guard inside `verified()` is defense-in-depth
        // that no longer swallows the error via `single_clock().ok()`.)
        let mut n = Netlist::new("twoclk");
        let clk_a = n.add_input("clk_a");
        let clk_b = n.add_input("clk_b");
        let a = n.add_input("a");
        let q0 = n.add_net("q0");
        let q1 = n.add_output("q1");
        n.add_dff("r0", a, clk_a, q0).unwrap();
        n.add_dff("r1", q0, clk_b, q1).unwrap();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let err = flow.verified().unwrap_err();
        assert_ne!(err, DesyncError::MissingStimulus);
        assert!(
            matches!(
                &err,
                DesyncError::Netlist(desync_netlist::NetlistError::ClockError(msg))
                    if msg.contains("2 distinct clock nets")
            ),
            "{err}"
        );
    }

    #[test]
    fn stage_ordering_and_names() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert!(Stage::Clustered < Stage::Verified);
        assert_eq!(Stage::Timed.to_string(), "timed");
    }
}
