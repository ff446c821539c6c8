//! # desync — automatic desynchronization of synchronous circuits
//!
//! A Rust reproduction of Cortadella, Kondratyev, Lavagno, Lwin and
//! Sotiriou, *"From synchronous to asynchronous: an automatic approach"*
//! (DATE 2004): replace the clock tree of an ordinary synchronous gate-level
//! netlist by a network of local handshake controllers, without touching the
//! combinational logic, and lose (almost) nothing in cycle time, power or
//! area.
//!
//! This facade crate re-exports the whole toolkit:
//!
//! * [`netlist`] — gate-level netlist IR, cell library, structural Verilog
//!   subset.
//! * [`mg`] — marked graphs / signal transition graphs: the token game,
//!   liveness, safeness, cycle-time analysis and flow equivalence.
//! * [`lint`] — static verification: witness-producing netlist and
//!   control-network pass suites with stable diagnostic codes, backing the
//!   flow's input gate, which every caller meets before the first stage.
//! * [`sta`] — static timing analysis and matched-delay sizing.
//! * [`sim`] — event-driven gate-level simulation (synchronous and
//!   desynchronized harnesses).
//! * [`power`] — activity-based power, area and clock-tree models.
//! * [`circuits`] — benchmark generators (DLX processor, pipelines, FIR,
//!   counters).
//! * [`core`] — the desynchronization flow itself.
//!
//! # The staged pipeline
//!
//! The flow is a staged pipeline ([`DesyncFlow`](core::DesyncFlow)) that
//! advances through five typed stages, each owning an inspectable artifact:
//!
//! ```text
//! Clustered ──▶ Latched ──▶ Timed ──▶ Controlled ──▶ Verified
//! ClusterGraph  LatchDesign TimingTable ControlNetwork EquivalenceReport
//! ```
//!
//! Stages run lazily and cache their artifacts; changing one knob re-runs
//! only the invalidated suffix of the pipeline (a protocol sweep, for
//! example, re-runs controller synthesis per protocol while clustering and
//! delay sizing are computed once). Matched-delay sizing walks only each
//! source cluster's forward cone. A
//! [`DesyncEngine`](core::DesyncEngine) shares stage artifacts *across*
//! flows — a content-addressed cache whose artifacts live in one
//! weight-accounted [`ArtifactStore`](core::store::ArtifactStore)
//! with optional LRU eviction ([`StoreConfig`](core::StoreConfig)). On top,
//! a [`DesyncService`](core::DesyncService) batches whole request sets:
//! identical in-flight requests coalesce onto one computation and distinct
//! ones run with bounded concurrency from a shared
//! [`DesyncRuntime`](core::DesyncRuntime). The service's core is an
//! asynchronous submission queue ([`ServiceQueue`](core::ServiceQueue)):
//! requests return per-ticket handles ([`TicketHandle`](core::TicketHandle))
//! with cooperative cancellation ([`CancelToken`](core::CancelToken)),
//! per-request deadlines, bounded depth with an admission policy
//! ([`AdmissionPolicy`](core::AdmissionPolicy)), and per-request panic
//! containment — a worker panic resolves that one ticket with a typed
//! [`DesyncError::StagePanicked`](core::DesyncError) and never poisons the
//! shared engine. The queue schedules fairly across tenants: submissions
//! carry a [`SubmitMeta`](core::SubmitMeta) tag (a [`TenantId`](core::TenantId)
//! and a [`Priority`](core::Priority) lane), dispatch is strict-priority over
//! deficit round-robin with anti-starvation aging, per-tenant quotas shed
//! only the bursting tenant, and reports carry per-tenant / per-lane
//! counter blocks ([`TenantCounters`](core::TenantCounters),
//! [`LaneCounters`](core::LaneCounters)) plus a deterministic dispatch log.
//! A soak harness ([`run_soak`](core::run_soak)) replays recorded
//! multi-tenant traffic ([`TrafficRecording`](core::TrafficRecording))
//! under seeded fault plans and asserts the robustness invariants.
//!
//! # Quickstart
//!
//! ```
//! use desync::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Take any synchronous flip-flop netlist (here: a small pipeline).
//! let netlist = LinearPipelineConfig::balanced(4, 8, 3).generate()?;
//! let library = CellLibrary::generic_90nm();
//!
//! // 2. Open a staged flow and inspect the intermediate artifacts.
//! let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default())?;
//! assert!(flow.clustered()?.len() > 0);          // latch clusters
//! assert!(flow.timed()?.sync_clock_period_ps > 0.0); // STA + matched delays
//!
//! // 3. The control network is live and safe — the formal guarantee behind
//! //    the method.
//! assert!(flow.controlled()?.model.is_live());
//! assert!(flow.controlled()?.model.is_safe());
//!
//! // 4. Gate-level co-simulation: the desynchronized circuit latches the
//! //    same value sequence into every register (flow equivalence).
//! flow.set_verification(VectorSource::constant(vec![]), 16);
//! assert!(flow.verified()?.is_equivalent());
//!
//! // 5. Bundle the stage artifacts into a design.
//! let design = flow.design()?;
//! assert!(design.cycle_time_ps() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use desync_circuits as circuits;
pub use desync_core as core;
pub use desync_lint as lint;
pub use desync_mg as mg;
pub use desync_netlist as netlist;
pub use desync_power as power;
pub use desync_sim as sim;
pub use desync_sta as sta;

/// The most commonly used items, importable with one `use desync::prelude::*`.
pub mod prelude {
    pub use desync_circuits::{DlxConfig, FirConfig, LinearPipelineConfig};
    pub use desync_core::{
        run_soak, AdmissionPolicy, ArtifactKind, BatchReport, CampaignOutcome, CampaignRequest,
        CancelToken, ClusteringStrategy, ControlNetwork, DesyncDesign, DesyncEngine, DesyncError,
        DesyncFlow, DesyncOptions, DesyncRuntime, DesyncService, DispatchRecord, DivergenceWindow,
        EngineReport, EquivalenceReport, FlowReport, LaneCounters, MultiSeedReport, Priority,
        Protocol, QueueCampaignRequest, QueueConfig, QueueCounters, QueueRequest,
        QueueSweepRequest, ServiceQueue, ServiceRequest, SizingAnalysis, SoakConfig, SoakReport,
        Stage, StoreConfig, SubmitMeta, SubmitOptions, SweepRequest, TenantCounters, TenantId,
        TicketHandle, TimingTable, TrafficRecording,
    };
    pub use desync_lint::{lint_design, Diagnostic, LintCode, LintReport, Severity};
    pub use desync_mg::{FlowEquivalence, FlowTrace, MarkedGraph, Stg};
    pub use desync_netlist::{CellKind, CellLibrary, Netlist, NetlistError, Value};
    pub use desync_power::{
        dynamic_power_mw, leakage_power_mw, AreaReport, ClockTree, PowerReport,
    };
    pub use desync_sim::{
        AsyncBench, CompiledModel, PackedValue, PackedVectorSource, SimConfig, SyncBench,
        VectorSource, MAX_LANES,
    };
    pub use desync_sta::{MatchedDelay, Sta, TimingConfig};
}
