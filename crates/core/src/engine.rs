//! The cross-flow artifact cache, its runtime, and the engine report.
//!
//! The desynchronization flow is deterministic: for one (netlist, library,
//! options) triple every stage artifact is a pure function of its inputs.
//! A [`DesyncEngine`] exploits that determinism across flows — a batch or
//! service front-end pushing many requests through the toolkit attaches each
//! [`DesyncFlow`] to one shared engine
//! ([`DesyncEngine::flow`]), and any stage whose inputs were already seen is
//! served from a shared [`ArtifactStore`] instead of recomputed:
//!
//! * **Cache keys** (`ArtifactKey`) pair an interned netlist/library
//!   identity (stable [`Netlist::structural_hash`] plus a full equality
//!   check, so distinct designs can never collide) with either the options
//!   *prefix* a stage consumes (`DesyncOptions::stage_prefix` — the same
//!   mapping that drives stage invalidation, so cache validity and
//!   invalidation can never drift apart) or, for synchronous reference
//!   runs, the simulation inputs the run is a pure function of.
//! * **Cached artifacts** fall into eight store kinds ([`ArtifactKind`]):
//!   the four construction stages — [`ClusterGraph`], [`LatchDesign`],
//!   [`TimingTable`], [`ControlNetwork`] — plus the synchronous reference
//!   runs of co-simulation (scalar [`SimRun`]s and packed
//!   [`PackedSimRun`]s share one kind), the **compiled simulation models**
//!   ([`CompiledModel`] — one per netlist structure × `SimConfig`, shared
//!   by every sweep point that simulates that structure), the
//!   **margin-independent sizing analyses** ([`SizingAnalysis`] — margin
//!   sweep points re-bind matched delays from them instead of re-running
//!   arrival propagation) and the pre-flight **lint reports**
//!   ([`LintReport`]). Full verification reports depend on the per-flow
//!   stimulus and are never cached.
//! * **The store** is weight-accounted, behind one lock, with optional LRU
//!   eviction: [`DesyncEngine::with_store`] bounds the resident weight for
//!   long-running services, while the default engine is unbounded (see the
//!   [`store`](crate::store) module).
//! * **The runtime** ([`DesyncRuntime`]) carries the default request
//!   concurrency of a [`DesyncService`](crate::DesyncService) built on the
//!   engine. It spawns no threads: every stage, matched-delay sizing
//!   included, runs on the thread that asks for it.
//! * **Detached flows** ([`DesyncFlow::new`](crate::DesyncFlow::new)) own a
//!   private unbounded store, so every flow sources its artifacts through
//!   the same store path; a detached flow simply shares them with nobody
//!   but itself.
//! * **The report** ([`DesyncEngine::report`]) holds the store's counter
//!   row of each kind as the store keeps it ([`EngineReport::kind`]) plus
//!   the store-wide totals, and [`EngineReport::since`] turns two reports
//!   into the traffic between them (each service batch reports its store
//!   traffic that way).
//!
//! ```
//! use desync_core::{DesyncEngine, DesyncOptions, Stage};
//! use desync_netlist::{CellKind, CellLibrary, Netlist};
//!
//! # fn main() -> Result<(), desync_core::DesyncError> {
//! let mut n = Netlist::new("pipe");
//! let clk = n.add_input("clk");
//! let a = n.add_input("a");
//! let q0 = n.add_net("q0");
//! let w = n.add_net("w");
//! let q1 = n.add_output("q1");
//! n.add_dff("r0", a, clk, q0).unwrap();
//! n.add_gate("g0", CellKind::Not, &[q0], w).unwrap();
//! n.add_dff("r1", w, clk, q1).unwrap();
//! let library = CellLibrary::generic_90nm();
//!
//! let engine = DesyncEngine::new();
//! let first = engine.flow(&n, &library, DesyncOptions::default())?.design()?;
//! // A second flow over the identical request recomputes nothing.
//! let mut resumed = engine.flow(&n, &library, DesyncOptions::default())?;
//! let second = resumed.design()?;
//! assert_eq!(first, second);
//! assert_eq!(resumed.stage_runs(Stage::Controlled), 0);
//! assert_eq!(resumed.cache_hits(Stage::Controlled), 1);
//! assert!(engine.report().total_hits() >= 4);
//! assert!(engine.report().resident_weight > 0);
//! # Ok(())
//! # }
//! ```

use crate::cluster::ClusterGraph;
use crate::conversion::LatchDesign;
use crate::error::DesyncError;
use crate::options::{DesyncOptions, StagePrefix};
use crate::pipeline::{ControlNetwork, DesyncFlow, SizingAnalysis, Stage, TimingTable};
use crate::store::{
    ArtifactStore, Fetched, StoreConfig, StoreKey, StoreKindStats, StoreStats, Weigh,
};
use desync_lint::LintReport;
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{CompiledModel, PackedSimRun, SimConfig, SimRun};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread;

/// The kinds of artifact the engine's store caches, in store order: a
/// kind's index is its row in [`EngineReport`] and its store counter slot.
/// The four construction stages come first, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// [`Stage::Clustered`] artifacts ([`ClusterGraph`]).
    Clustered,
    /// [`Stage::Latched`] artifacts ([`LatchDesign`]).
    Latched,
    /// [`Stage::Timed`] artifacts ([`TimingTable`]).
    Timed,
    /// [`Stage::Controlled`] artifacts ([`ControlNetwork`]).
    Controlled,
    /// Synchronous reference runs (scalar [`SimRun`]s and packed
    /// [`PackedSimRun`]s).
    SyncRun,
    /// Compiled simulation models ([`CompiledModel`]).
    Compiled,
    /// Margin-independent sizing analyses ([`SizingAnalysis`]).
    Sizing,
    /// Pre-flight lint reports ([`LintReport`]).
    Lint,
}

impl ArtifactKind {
    /// Every kind, in store order.
    pub const ALL: [ArtifactKind; 8] = [
        ArtifactKind::Clustered,
        ArtifactKind::Latched,
        ArtifactKind::Timed,
        ArtifactKind::Controlled,
        ArtifactKind::SyncRun,
        ArtifactKind::Compiled,
        ArtifactKind::Sizing,
        ArtifactKind::Lint,
    ];

    /// The four construction-stage kinds, indexed by [`Stage::index`]
    /// ([`Stage::Verified`] is never cached).
    pub const STAGES: [ArtifactKind; 4] = [
        ArtifactKind::Clustered,
        ArtifactKind::Latched,
        ArtifactKind::Timed,
        ArtifactKind::Controlled,
    ];

    /// The kind's position in store order (its row in [`EngineReport`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lower-case kind name, as [`EngineReport`] prints it.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Clustered => "clustered",
            ArtifactKind::Latched => "latched",
            ArtifactKind::Timed => "timed",
            ArtifactKind::Controlled => "controlled",
            ArtifactKind::SyncRun => "sync-run",
            ArtifactKind::Compiled => "compiled",
            ArtifactKind::Sizing => "sizing",
            ArtifactKind::Lint => "lint",
        }
    }
}

/// Interned identity of a netlist inside one engine (collision-free: the
/// engine confirms every structural-hash match with a full equality check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NetlistId(u32);

/// Interned identity of a cell library inside one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LibraryId(u32);

/// The uniform content address of every cached artifact: which design,
/// which library, and which facet of the flow the artifact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ArtifactKey {
    netlist: NetlistId,
    library: LibraryId,
    facet: Facet,
}

/// The per-facet half of an [`ArtifactKey`]: the options prefix a
/// construction stage consumes, or everything a synchronous reference run
/// is a pure function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Facet {
    /// A construction-stage artifact. The stage is part of the key because
    /// adjacent stages can share an options prefix (clustering and latch
    /// conversion consume the same knobs) while owning distinct artifacts.
    Stage { stage: Stage, prefix: StagePrefix },
    /// A synchronous reference simulation. Protocol and margin knobs are
    /// deliberately absent — they only affect the desynchronized side,
    /// which is exactly why sweeps can share the reference run.
    SyncRun {
        /// [`SimConfig`] as IEEE-754 bit patterns.
        config: [u64; 3],
        /// Clock period as an IEEE-754 bit pattern.
        period: u64,
        cycles: usize,
        /// [`VectorSource::content_digest`](desync_sim::VectorSource::content_digest)
        /// for scalar runs,
        /// [`PackedVectorSource::content_digest`](desync_sim::PackedVectorSource::content_digest)
        /// for packed runs (the digests carry distinct flavour tags).
        stimulus: u64,
        /// Stimulus lane count: 1 for scalar reference runs, the packed
        /// lane count (1..=64) for multi-seed campaign references. Keeps a
        /// one-lane packed run and a scalar run of the same stimulus from
        /// colliding on one artifact slot.
        lanes: u32,
    },
    /// A compiled simulation model ([`CompiledModel`]): the structure half
    /// of a simulator, shared by every sweep point that simulates the same
    /// netlist under the same [`SimConfig`].
    Compiled {
        /// `None` for the synchronous original; for the desynchronized
        /// datapath, the [`Stage::Latched`] options prefix that determines
        /// the latch netlist's structure (protocol and margin are absent —
        /// all points of a sweep share one datapath model).
        datapath: Option<StagePrefix>,
        /// [`SimConfig`] as IEEE-754 bit patterns.
        config: [u64; 3],
    },
    /// A margin-independent sizing analysis ([`SizingAnalysis`]): the
    /// arrival-propagation half of [`Stage::Timed`], shared by every margin
    /// point (each point only re-binds matched delays from it).
    Sizing {
        /// The [`Stage::Timed`] options prefix with the matched-delay
        /// margin stripped (see `DesyncOptions::sizing_analysis_prefix`).
        prefix: StagePrefix,
    },
    /// A pre-flight lint report ([`LintReport`]): a pure function of the
    /// netlist alone (options are validated separately per request), so the
    /// facet carries no parameters — the interned netlist identity is the
    /// whole key.
    Lint,
}

impl StoreKey for ArtifactKey {
    fn kind(&self) -> usize {
        let kind = match self.facet {
            Facet::Stage { stage, .. } => ArtifactKind::STAGES[stage.index()],
            Facet::SyncRun { .. } => ArtifactKind::SyncRun,
            Facet::Compiled { .. } => ArtifactKind::Compiled,
            Facet::Sizing { .. } => ArtifactKind::Sizing,
            Facet::Lint => ArtifactKind::Lint,
        };
        kind.index()
    }
}

/// An artifact type the engine's store holds: its conversion into and out
/// of the store's value enum.
pub(crate) trait Cached: Sized {
    /// Wraps a shared artifact into the store's value enum.
    fn wrap(value: Arc<Self>) -> Artifact;
    /// Unwraps the store's value enum (`None` for another artifact type).
    fn unwrap(artifact: Artifact) -> Option<Arc<Self>>;
}

/// Declares the store's value enum, one variant per artifact type, and the
/// [`Cached`] conversion of each type.
macro_rules! artifacts {
    ($($variant:ident($ty:ty),)*) => {
        /// One cached value, shared by `Arc` so a store hit is a pointer
        /// clone.
        #[derive(Debug, Clone)]
        pub(crate) enum Artifact {
            $($variant(Arc<$ty>),)*
        }

        impl Weigh for Artifact {
            fn weight(&self) -> usize {
                match self {
                    $(Artifact::$variant(v) => v.weight(),)*
                }
            }
        }

        $(impl Cached for $ty {
            fn wrap(value: Arc<Self>) -> Artifact {
                Artifact::$variant(value)
            }

            fn unwrap(artifact: Artifact) -> Option<Arc<Self>> {
                match artifact {
                    Artifact::$variant(v) => Some(v),
                    _ => None,
                }
            }
        })*
    };
}

artifacts! {
    Clustered(ClusterGraph),
    Latched(LatchDesign),
    Timed(TimingTable),
    Controlled(ControlNetwork),
    SyncRun(SimRun),
    PackedSyncRun(PackedSimRun),
    Compiled(CompiledModel),
    Sizing(SizingAnalysis),
    Lint(LintReport),
}

/// The engine a flow draws its artifacts from.
#[derive(Debug, Clone)]
enum EngineRef<'a> {
    /// A shared engine the flow is attached to.
    Shared(&'a DesyncEngine),
    /// The private store of a detached flow (shared only with the flow's
    /// clones).
    Private(Arc<DesyncEngine>),
}

/// A flow's connection to the store its artifacts come from, carried
/// inside [`DesyncFlow`](crate::DesyncFlow): an attached engine, or the
/// private store of a detached flow.
#[derive(Debug, Clone)]
pub(crate) struct EngineHandle<'a> {
    engine: EngineRef<'a>,
    netlist: NetlistId,
    library: LibraryId,
}

impl<'a> EngineHandle<'a> {
    /// A detached flow's private store: unbounded. It only ever holds one
    /// netlist and one library, so it keys them with fixed identities and
    /// never hashes or clones the netlist.
    pub(crate) fn private() -> Self {
        let engine = DesyncEngine::with_store_and_runtime(
            StoreConfig::unbounded(),
            DesyncRuntime::with_workers(1),
        );
        Self {
            engine: EngineRef::Private(Arc::new(engine)),
            netlist: NetlistId(0),
            library: LibraryId(0),
        }
    }

    fn engine(&self) -> &DesyncEngine {
        match &self.engine {
            EngineRef::Shared(engine) => engine,
            EngineRef::Private(engine) => engine,
        }
    }

    fn key(&self, facet: Facet) -> ArtifactKey {
        ArtifactKey {
            netlist: self.netlist,
            library: self.library,
            facet,
        }
    }

    /// The cache key of `stage` under `options`.
    pub(crate) fn stage_key(&self, options: &DesyncOptions, stage: Stage) -> ArtifactKey {
        self.key(Facet::Stage {
            stage,
            prefix: options.stage_prefix(stage),
        })
    }

    /// The cache key of a synchronous reference run under the given
    /// simulation inputs: `lanes` is 1 for a scalar run and the stimulus
    /// lane count for a packed (multi-lane) run.
    pub(crate) fn sync_run_key(
        &self,
        config: SimConfig,
        period_ps: f64,
        cycles: usize,
        stimulus_digest: u64,
        lanes: u32,
    ) -> ArtifactKey {
        self.key(Facet::SyncRun {
            config: config.key_bits(),
            period: period_ps.to_bits(),
            cycles,
            stimulus: stimulus_digest,
            lanes,
        })
    }

    /// The cache key of a compiled simulation model: `datapath` is `None`
    /// for the synchronous original and the [`Stage::Latched`] prefix for
    /// the desynchronized datapath (whose structure it determines).
    pub(crate) fn compiled_key(
        &self,
        datapath: Option<StagePrefix>,
        config: SimConfig,
    ) -> ArtifactKey {
        self.key(Facet::Compiled {
            datapath,
            config: config.key_bits(),
        })
    }

    /// The cache key of the margin-independent sizing analysis.
    pub(crate) fn sizing_key(&self, prefix: StagePrefix) -> ArtifactKey {
        self.key(Facet::Sizing { prefix })
    }

    /// The cache key of the pre-flight lint report (netlist identity only;
    /// the report ignores options and library).
    pub(crate) fn lint_key(&self) -> ArtifactKey {
        self.key(Facet::Lint)
    }

    /// Fetches the artifact under `key`, computing it at most once across
    /// every racing flow on this store (see
    /// [`ArtifactStore::get_or_try_compute`]). The unwrap cannot fail
    /// because the key's facet names the artifact type.
    pub(crate) fn fetch<T: Cached>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<Arc<T>, DesyncError>,
    ) -> Result<(Arc<T>, Fetched), DesyncError> {
        let (artifact, how) = self
            .engine()
            .store
            .get_or_try_compute(key, || compute().map(T::wrap))?;
        let value = T::unwrap(artifact).expect("the key's facet names the artifact type");
        Ok((value, how))
    }
}

// ---- the runtime --------------------------------------------------------

/// The execution settings of the desynchronization toolkit: the default
/// request concurrency of a [`DesyncService`](crate::DesyncService).
///
/// Every [`DesyncEngine`] owns a runtime (its own by default, or a shared
/// one via [`DesyncEngine::with_runtime`]), and the service derives its
/// worker-concurrency bound from it. A runtime spawns no threads.
#[derive(Debug, Clone)]
pub struct DesyncRuntime {
    workers: usize,
}

impl Default for DesyncRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl DesyncRuntime {
    /// A runtime with one worker per available CPU.
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    /// A runtime with an explicit worker count (clamped to at least one).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The worker count: the default concurrency of a service on this
    /// runtime.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// The interning tables behind the engine's identity lock: artifacts
/// themselves live in the [`ArtifactStore`] behind its own lock, so this
/// mutex is held only for identity resolution, never across artifact
/// traffic.
#[derive(Debug, Default)]
struct InternState {
    /// Structural hash → interned netlists with that hash (almost always one
    /// entry; equality is re-checked on attach, so a hash collision costs a
    /// comparison, never a wrong artifact).
    netlists: HashMap<u64, Vec<(Arc<Netlist>, NetlistId)>>,
    /// Address of each interned netlist → its entry. Interned netlists are
    /// never dropped while the engine lives, so an address found here is
    /// the interned netlist itself, identified without hashing.
    by_address: HashMap<usize, (Arc<Netlist>, NetlistId)>,
    num_netlists: u32,
    libraries: Vec<Arc<CellLibrary>>,
}

/// A cross-flow artifact cache (one weight-accounted [`ArtifactStore`])
/// plus a [`DesyncRuntime`] handle.
///
/// See the [module documentation](self) for the caching model and an
/// end-to-end example. An engine is `Sync`: many threads may drive flows
/// against it concurrently. Artifact traffic goes through the store's
/// one lock; stage computation itself happens outside any lock, and
/// racing flows that miss the same key coalesce at the store's in-flight
/// registry — exactly one computes while the rest wait briefly and are
/// served, so every artifact is computed **exactly once** however many
/// sweep points or service workers need it (the
/// [`DesyncService`](crate::DesyncService) additionally coalesces identical
/// whole requests so duplicates never even reach the store).
#[derive(Debug)]
pub struct DesyncEngine {
    intern: Mutex<InternState>,
    store: ArtifactStore<ArtifactKey, Artifact>,
    runtime: DesyncRuntime,
}

impl Default for DesyncEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DesyncEngine {
    /// Creates an unbounded engine whose own runtime has one worker per
    /// available CPU.
    pub fn new() -> Self {
        Self::with_store_and_runtime(StoreConfig::default(), DesyncRuntime::new())
    }

    /// Creates an unbounded engine with an explicit runtime worker count
    /// (clamped to at least one).
    pub fn with_workers(workers: usize) -> Self {
        Self::with_store_and_runtime(StoreConfig::default(), DesyncRuntime::with_workers(workers))
    }

    /// Creates an engine with an explicit store configuration (capacity in
    /// [`Weigh`] units) and its own default runtime.
    pub fn with_store(store: StoreConfig) -> Self {
        Self::with_store_and_runtime(store, DesyncRuntime::new())
    }

    /// Creates an unbounded engine on a shared runtime.
    pub fn with_runtime(runtime: DesyncRuntime) -> Self {
        Self::with_store_and_runtime(StoreConfig::default(), runtime)
    }

    /// Creates an engine with full control over store and runtime.
    pub fn with_store_and_runtime(store: StoreConfig, runtime: DesyncRuntime) -> Self {
        Self {
            intern: Mutex::new(InternState::default()),
            store: ArtifactStore::new(ArtifactKind::ALL.len(), store),
            runtime,
        }
    }

    /// Creates a [`DesyncFlow`] over `netlist` attached to this engine.
    ///
    /// The flow behaves exactly like one from [`DesyncFlow::new`], except
    /// that its artifacts come from (and are published to) the engine's
    /// shared store instead of a private one.
    ///
    /// # Errors
    ///
    /// [`DesyncError::InvalidOptions`] when a knob fails
    /// [`DesyncOptions::validate`].
    pub fn flow<'a>(
        &'a self,
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        options: DesyncOptions,
    ) -> Result<DesyncFlow<'a>, DesyncError> {
        DesyncFlow::with_engine(netlist, library, options, self)
    }

    /// Registers `netlist` and `library` with the interning tables and
    /// returns the flow's handle.
    pub(crate) fn attach<'a>(
        &'a self,
        netlist: &Netlist,
        library: &CellLibrary,
    ) -> EngineHandle<'a> {
        let (_, netlist_id) = self.intern_netlist_entry(netlist);
        let (_, library_id) = self.intern_library_entry(library);
        EngineHandle {
            engine: EngineRef::Shared(self),
            netlist: netlist_id,
            library: library_id,
        }
    }

    /// Interns `netlist` and returns the engine's canonical `Arc` for it —
    /// the same `Arc` every flow over an equal netlist shares. Submitting
    /// through [`ServiceQueue`](crate::ServiceQueue) requires owned
    /// (`'static`) request inputs; interning here means repeat submissions
    /// of one design clone the netlist exactly once, engine-wide.
    pub fn intern_netlist(&self, netlist: &Netlist) -> Arc<Netlist> {
        self.intern_netlist_entry(netlist).0
    }

    /// Interns `library` and returns the engine's canonical `Arc` for it.
    pub fn intern_library(&self, library: &CellLibrary) -> Arc<CellLibrary> {
        self.intern_library_entry(library).0
    }

    /// Interns `netlist`, returning the canonical stored `Arc` plus the
    /// stable identity the store keys artifacts under.
    pub(crate) fn intern_netlist_entry(&self, netlist: &Netlist) -> (Arc<Netlist>, NetlistId) {
        // The deep netlist comparison (and the clone of a first-seen
        // netlist) is O(design); doing it while holding the identity mutex
        // would serialize concurrent flow creation on exactly the hot
        // cache-hit path. Snapshot the candidates under the lock, compare
        // outside it, and re-lock only to intern — re-scanning whatever a
        // racing thread interned in between so identities stay canonical.
        // The engine's own interned netlist (every queue request carries
        // it) is recognised by address before any of that.
        let address = netlist as *const Netlist as usize;
        if let Some(entry) = self.with_intern(|s| s.by_address.get(&address).cloned()) {
            return entry;
        }
        let hash = netlist.structural_hash();
        let candidates: Vec<(Arc<Netlist>, NetlistId)> =
            self.with_intern(|s| s.netlists.get(&hash).cloned().unwrap_or_default());
        match candidates
            .iter()
            .find(|(stored, _)| stored.as_ref() == netlist)
        {
            Some((stored, id)) => (Arc::clone(stored), *id),
            None => {
                let interned = Arc::new(netlist.clone());
                self.with_intern(move |s| {
                    let fresh = NetlistId(s.num_netlists);
                    let bucket = s.netlists.entry(hash).or_default();
                    match bucket[candidates.len()..]
                        .iter()
                        .find(|(stored, _)| stored.as_ref() == netlist)
                    {
                        Some((stored, id)) => (Arc::clone(stored), *id),
                        None => {
                            bucket.push((Arc::clone(&interned), fresh));
                            let address = Arc::as_ptr(&interned) as usize;
                            s.by_address.insert(address, (Arc::clone(&interned), fresh));
                            s.num_netlists += 1;
                            (interned, fresh)
                        }
                    }
                })
            }
        }
    }

    /// Interns `library`, returning the canonical stored `Arc` plus its
    /// stable identity.
    pub(crate) fn intern_library_entry(
        &self,
        library: &CellLibrary,
    ) -> (Arc<CellLibrary>, LibraryId) {
        let known_libraries: Vec<Arc<CellLibrary>> = self.with_intern(|s| s.libraries.clone());
        match known_libraries
            .iter()
            .position(|stored| stored.as_ref() == library)
        {
            Some(index) => (Arc::clone(&known_libraries[index]), LibraryId(index as u32)),
            None => {
                let interned = Arc::new(library.clone());
                self.with_intern(move |s| {
                    match s.libraries[known_libraries.len()..]
                        .iter()
                        .position(|stored| stored.as_ref() == library)
                    {
                        Some(offset) => {
                            let index = known_libraries.len() + offset;
                            (Arc::clone(&s.libraries[index]), LibraryId(index as u32))
                        }
                        None => {
                            s.libraries.push(Arc::clone(&interned));
                            (interned, LibraryId((s.libraries.len() - 1) as u32))
                        }
                    }
                })
            }
        }
    }

    fn with_intern<T>(&self, f: impl FnOnce(&mut InternState) -> T) -> T {
        // Recover a poisoned identity table: interning either completed its
        // bucket push or never started it (no user code runs under the
        // lock), so the state is consistent and a panicked thread elsewhere
        // must not brick every later flow creation.
        f(&mut self
            .intern
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Number of artifact computations currently registered in the store's
    /// in-flight leader/follower registry (zero whenever no computation is
    /// mid-flight — the fault-injection suite asserts this after every
    /// faulted batch to prove a panicked leader never wedges a key).
    pub fn inflight_artifacts(&self) -> usize {
        self.store.inflight_len()
    }

    /// The engine's runtime handle (clone it to share the worker count with
    /// another engine or a [`DesyncService`](crate::DesyncService)).
    pub fn runtime(&self) -> &DesyncRuntime {
        &self.runtime
    }

    /// The configured store capacity in [`Weigh`] units (`None` =
    /// unbounded).
    pub fn store_capacity(&self) -> Option<usize> {
        self.store.capacity()
    }

    /// Drops every cached artifact.
    ///
    /// Interned netlists/libraries stay registered (flows created earlier
    /// keep valid identities) and the hit/miss/eviction counters keep
    /// accumulating; only the store is emptied.
    pub fn clear(&self) {
        self.store.clear();
    }

    /// A snapshot of the engine's cache population and counters.
    pub fn report(&self) -> EngineReport {
        let (netlists, libraries) =
            self.with_intern(|s| (s.num_netlists as usize, s.libraries.len()));
        EngineReport::new(netlists, libraries, self.store.stats())
    }
}

/// A snapshot of a [`DesyncEngine`]'s cache population and counters, see
/// [`DesyncEngine::report`]: the store's row of each [`ArtifactKind`]
/// ([`EngineReport::kind`]) plus the store-wide totals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Distinct netlists interned so far.
    pub netlists: usize,
    /// Distinct cell libraries interned so far.
    pub libraries: usize,
    /// Configured store capacity in [`Weigh`] units (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Resident weight summed over every kind.
    pub resident_weight: usize,
    /// Lookups (of any kind) that coalesced onto another thread's in-flight
    /// computation instead of recomputing — the store's exactly-once
    /// guarantee at work under parallel sweeps.
    pub store_coalesced: usize,
    /// The [`ArtifactKind::SyncRun`] row's misses, kept as a field for the
    /// repository benchmark (`perfbench`), which reads it by name.
    pub sync_run_misses: usize,
    /// The [`ArtifactKind::Compiled`] row's misses, kept for `perfbench`.
    pub compiled_model_misses: usize,
    /// The [`ArtifactKind::Sizing`] row's misses, kept for `perfbench`.
    pub sizing_misses: usize,
    /// The store's snapshot: one row per [`ArtifactKind`], in store order,
    /// from which the store-wide fields above are derived.
    stats: StoreStats,
}

impl EngineReport {
    fn new(netlists: usize, libraries: usize, stats: StoreStats) -> Self {
        let misses = |kind: ArtifactKind| stats.kinds[kind.index()].misses;
        Self {
            netlists,
            libraries,
            capacity: stats.capacity,
            resident_weight: stats.resident_weight(),
            store_coalesced: stats.total_coalesced(),
            sync_run_misses: misses(ArtifactKind::SyncRun),
            compiled_model_misses: misses(ArtifactKind::Compiled),
            sizing_misses: misses(ArtifactKind::Sizing),
            stats,
        }
    }

    /// The store row of one artifact kind.
    pub fn kind(&self, kind: ArtifactKind) -> &StoreKindStats {
        &self.stats.kinds[kind.index()]
    }

    /// The traffic since `earlier`, an earlier report of the same engine:
    /// every counter (hits, misses, evictions, coalesced waits) is
    /// differenced row by row, and every level (entries, resident weight,
    /// interned netlists and libraries, capacity) is this report's.
    pub fn since(&self, earlier: &EngineReport) -> EngineReport {
        Self::new(
            self.netlists,
            self.libraries,
            self.stats.since(&earlier.stats),
        )
    }

    /// Cache hits summed over the four construction stages.
    pub fn total_hits(&self) -> usize {
        ArtifactKind::STAGES
            .iter()
            .map(|&k| self.kind(k).hits)
            .sum()
    }

    /// Cache misses summed over the four construction stages.
    pub fn total_misses(&self) -> usize {
        ArtifactKind::STAGES
            .iter()
            .map(|&k| self.kind(k).misses)
            .sum()
    }

    /// Evictions summed over every kind.
    pub fn total_evictions(&self) -> usize {
        self.stats.total_evictions()
    }

    /// Fraction of stage lookups served from the store (0.0 when none
    /// happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let capacity = match self.capacity {
            Some(c) => format!("{c}"),
            None => "unbounded".to_string(),
        };
        writeln!(
            f,
            "desync engine: {} netlist(s), {} library(ies), store {} / {} weight resident",
            self.netlists, self.libraries, self.resident_weight, capacity
        )?;
        writeln!(
            f,
            "  {:<12} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "stage", "entries", "hits", "misses", "evicted", "weight"
        )?;
        for kind in ArtifactKind::ALL {
            let k = self.kind(kind);
            writeln!(
                f,
                "  {:<12} {:>7} {:>7} {:>7} {:>7} {:>8}",
                kind.name(),
                k.entries,
                k.hits,
                k.misses,
                k.evictions,
                k.resident_weight
            )?;
        }
        write!(
            f,
            "  stage total: {} hit(s) / {} miss(es) ({:.1} % hit rate), {} eviction(s) overall, \
             {} coalesced in-flight wait(s) \
             (sync-run / compiled / sizing / lint caches counted separately above)",
            self.total_hits(),
            self.total_misses(),
            100.0 * self.hit_rate(),
            self.total_evictions(),
            self.store_coalesced,
        )
    }
}

fn default_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        // A service front-end shares one engine across request threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DesyncEngine>();
        assert_send_sync::<EngineReport>();
        assert_send_sync::<DesyncRuntime>();
    }

    #[test]
    fn runtime_is_shared_by_clone() {
        let runtime = DesyncRuntime::with_workers(2);
        let a = DesyncEngine::with_runtime(runtime.clone());
        let b = DesyncEngine::with_runtime(runtime.clone());
        assert_eq!(a.runtime().workers(), 2);
        assert_eq!(b.runtime().workers(), 2);
    }

    #[test]
    fn default_engine_is_unbounded() {
        let engine = DesyncEngine::with_workers(1);
        assert_eq!(engine.store_capacity(), None);
        let report = engine.report();
        assert_eq!(report.capacity, None);
        assert_eq!(report.resident_weight, 0);
        assert_eq!(report.total_evictions(), 0);
        let text = report.to_string();
        assert!(text.contains("unbounded"), "{text}");
        assert!(text.contains("evicted"), "{text}");
    }
}
