//! Desynchronization: automatic replacement of a synchronous circuit's clock
//! tree by a network of local handshake controllers.
//!
//! This crate implements the method of Cortadella, Kondratyev, Lavagno, Lwin
//! and Sotiriou, *"From synchronous to asynchronous: an automatic approach"*
//! (DATE 2004), grown from a one-shot flow into the kernel of a synthesis
//! service. The architecture is four layers, each usable on its own:
//!
//! | layer | type | role |
//! |---|---|---|
//! | pipeline | [`DesyncFlow`] | the staged flow: five typed stages, lazy, resumable |
//! | store | [`ArtifactStore`](store::ArtifactStore) | weight-accounted LRU cache of every artifact behind one lock, with exactly-once in-flight coalescing |
//! | engine | [`DesyncEngine`] | content-addressed cross-flow sharing on top of the store |
//! | service | [`DesyncService`] | batch, sweep and campaign front-end: coalescing, bounded workers, deterministic merging |
//!
//! # The staged pipeline
//!
//! [`DesyncFlow`] advances a single-clock flip-flop netlist through five
//! typed stages, each owning one inspectable artifact. The first stage
//! admits only a netlist whose `desync-lint` report ([`DesyncFlow::lint`])
//! is clean, so every caller rejects a bad input at that one gate:
//!
//! | stage | artifact | paper step |
//! |---|---|---|
//! | [`Stage::Clustered`] | [`ClusterGraph`] | group flip-flops into latch clusters |
//! | [`Stage::Latched`] | [`LatchDesign`] | split each flip-flop into master/slave latches (Figure 1) |
//! | [`Stage::Timed`] | [`TimingTable`] | STA + one matched delay per cluster edge |
//! | [`Stage::Controlled`] | [`ControlNetwork`] | local clock generators + timed marked-graph model (Figures 2/4) |
//! | [`Stage::Verified`] | [`EquivalenceReport`] | flow-equivalence co-simulation |
//!
//! Stages execute lazily, cache their artifacts, and resume from the
//! earliest invalidated stage when an option changes
//! ([`DesyncFlow::set_protocol`] re-runs only controller synthesis;
//! [`DesyncFlow::set_margin`] re-runs delay sizing and controller synthesis;
//! [`DesyncFlow::set_clustering`] restarts the pipeline). Per-stage run
//! counts and wall times are collected in a [`FlowReport`], and
//! [`DesyncFlow::design`] bundles the artifacts into a [`DesyncDesign`].
//!
//! # The store and the engine
//!
//! Because the flow is deterministic per (netlist, library, options),
//! artifacts are shared *across* flows: a [`DesyncEngine`] keys every
//! artifact — the four construction stages **and** the synchronous
//! reference runs of incremental co-simulation — by content (interned
//! netlist identity via [`Netlist::structural_hash`](desync_netlist::Netlist::structural_hash),
//! library identity, and the per-stage options prefix that also drives flow
//! invalidation). All cached values live in one
//! [`ArtifactStore`](store::ArtifactStore): weight-accounted through the
//! [`Weigh`] trait, behind one lock that is held only for map operations
//! (stages compute outside it), and optionally bounded — [`StoreConfig`]
//! sets a capacity in weight units and the store evicts least-recently-used
//! artifacts past it, with hit/miss/eviction/resident-weight counters in
//! the [`EngineReport`]. A [`DesyncDesign`] holds the same `Arc`s of the
//! four construction artifacts as the flow and the store, so each artifact
//! exists once however many designs point at it. The default engine is
//! unbounded.
//!
//! Matched-delay sizing walks each source cluster's forward cone on the
//! calling thread. A detached flow ([`DesyncFlow::new`]) owns a private
//! unbounded store, so it sources its artifacts exactly like an
//! engine-attached one.
//!
//! # The store and the engine, continued: simulation artifacts
//!
//! Verification is the hot path of a sweep, so its shareable halves are
//! first-class artifacts too: the synchronous reference run, the
//! **compiled simulation model** ([`desync_sim::CompiledModel`] — the
//! CSR topology/pin-list/delay half of a simulator, one per netlist
//! structure; a [`Simulator`](desync_sim::Simulator), the one cursor
//! generic over lane width, runs over it, so the scalar sweep and the
//! packed campaign bind to the same model) and the **margin-independent
//! sizing analysis** ([`SizingAnalysis`]) whose matched delays each margin
//! point merely re-binds. The store's
//! [`get_or_try_compute`](store::ArtifactStore::get_or_try_compute)
//! guarantees each is computed exactly once even when sweep points race.
//!
//! # The service
//!
//! [`DesyncService`] is the batch front-end: submit a slice of
//! [`ServiceRequest`]s — or verification sweep points ([`SweepRequest`],
//! via [`DesyncService::run_sweep`]), or packed campaign points
//! ([`CampaignRequest`], via [`DesyncService::run_campaign`]) — and every
//! kind runs the same path: identical in-flight requests coalesce onto one
//! computation (instead of racing to fill the same store key), distinct
//! requests execute with bounded concurrency derived from the runtime,
//! results merge deterministically in request order, and every batch
//! yields a [`BatchReport`].
//!
//! # Example
//!
//! ```
//! use desync_core::{DesyncFlow, DesyncOptions, Protocol, Stage};
//! use desync_netlist::{CellKind, CellLibrary, Netlist};
//!
//! # fn main() -> Result<(), desync_core::DesyncError> {
//! // A two-stage synchronous pipeline.
//! let mut n = Netlist::new("pipe");
//! let clk = n.add_input("clk");
//! let a = n.add_input("a");
//! let q0 = n.add_net("q0");
//! let w = n.add_net("w");
//! let q1 = n.add_output("q1");
//! n.add_dff("r0", a, clk, q0).unwrap();
//! n.add_gate("g0", CellKind::Not, &[q0], w).unwrap();
//! n.add_dff("r1", w, clk, q1).unwrap();
//!
//! let library = CellLibrary::generic_90nm();
//! let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default())?;
//!
//! // Inspect any intermediate artifact; predecessors run on demand.
//! assert_eq!(flow.clustered()?.len(), 2);
//! assert!(flow.timed()?.matched_delays.len() > 0);
//! assert!(flow.controlled()?.model.is_live());
//!
//! // Sweep a knob: only the controller stage re-runs.
//! for &protocol in Protocol::all() {
//!     flow.set_protocol(protocol)?;
//!     let design = flow.design()?;
//!     assert!(design.cycle_time_ps() > 0.0);
//! }
//! assert_eq!(flow.stage_runs(Stage::Clustered), 1);
//! assert_eq!(flow.stage_runs(Stage::Timed), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod controller;
pub mod conversion;
pub mod engine;
pub mod error;
pub mod failpoints;
pub mod flow;
pub mod model;
pub mod options;
pub mod pipeline;
pub mod service;
pub mod soak;
pub mod store;
pub mod submit;
pub mod verify;

pub use cluster::{Cluster, ClusterEdge, ClusterGraph, Parity};
pub use controller::{ControllerImpl, Protocol};
pub use conversion::{LatchDesign, LatchPair};
pub use engine::{ArtifactKind, DesyncEngine, DesyncRuntime, EngineReport};
pub use error::{DesyncError, OptionsError};
pub use flow::{DesyncDesign, DesyncSummary};
pub use model::ControlModel;
pub use options::{ClusteringStrategy, DesyncOptions};
pub use pipeline::{
    ControlNetwork, DesyncFlow, FlowReport, SizingAnalysis, Stage, StageReport, TimingTable,
};
pub use service::{
    BatchKind, BatchOutcome, BatchReport, CampaignOutcome, CampaignRequest, DesyncService,
    ServiceRequest, SweepRequest, VerifyRequest,
};
pub use soak::{
    run_soak, SoakConfig, SoakEvent, SoakKind, SoakReport, SoakResolution, TrafficRecording,
};
pub use store::{Fetched, StoreConfig, Weigh};
pub use submit::{
    AdmissionPolicy, CampaignPointOutcome, CancelToken, DispatchRecord, Interrupt, LaneCounters,
    Priority, QueueCampaignRequest, QueueConfig, QueueCounters, QueueRequest, QueueSweepRequest,
    QueueVerifyRequest, ServiceQueue, SubmitMeta, SubmitOptions, TenantCounters, TenantId,
    TicketHandle,
};
pub use verify::{
    packed_sync_reference_run_with_model, sync_reference_run_with_model,
    verify_flow_equivalence_packed_with_parts, verify_flow_equivalence_with_parts,
    DivergenceWindow, EquivalenceReport, MultiSeedReport,
};
