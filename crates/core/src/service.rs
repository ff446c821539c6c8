//! The batch service front-end over [`DesyncEngine`].
//!
//! A [`DesyncService`] is what a synthesis server's request loop talks to.
//! It accepts three kinds of work:
//!
//! * **Design batches** ([`DesyncService::run_batch`]): a slice of
//!   `(netlist, library, options)` [`ServiceRequest`]s, each producing a
//!   [`DesyncDesign`].
//! * **Verification sweeps** ([`DesyncService::run_sweep`]): a slice of
//!   [`SweepRequest`]s — `(netlist, library, options, stimulus, cycles)`
//!   points, the protocol × margin × stimulus grid of a co-simulation
//!   sweep — each producing an
//!   [`EquivalenceReport`].
//! * **Randomized-stimulus equivalence campaigns**
//!   ([`DesyncService::run_campaign`]): [`CampaignRequest`] points verified
//!   against up to 64 independent stimulus lanes each, executed by the
//!   bit-parallel packed simulation kernel at roughly the cost of one
//!   scalar verification per point. Each point produces a
//!   [`MultiSeedReport`] whose per-lane verdicts
//!   are bit-identical to 64 scalar [`DesyncService::run_sweep`] points.
//!
//! All three entry points run one batch path, and report through one
//! [`BatchReport`]:
//!
//! * **static admission control** — before any stage computes, each request
//!   group meets the flow's own lint gate: the `desync-lint` pre-flight
//!   ([`DesyncFlow::lint`](crate::DesyncFlow::lint), cached per netlist in
//!   the engine's store) that
//!   [`DesyncFlow::clustered`](crate::DesyncFlow::clustered) checks first,
//!   as it does for a direct flow. A design with error-severity
//!   diagnostics is rejected with [`DesyncError::LintRejected`] carrying
//!   the full witness-bearing report — the request fails in O(V+E) with
//!   zero stage computations, and [`BatchReport::lint_rejections`] and the
//!   lint row of [`BatchReport::store`] account for the traffic,
//! * **coalesced scheduling** — identical in-flight requests are grouped
//!   onto *one* computation; duplicates receive clones of the shared
//!   result. Each request's netlist and library are interned in the engine
//!   first, so two requests name the same design exactly when they carry
//!   the same interned `Arc`. Below the request level, the engine's
//!   [`ArtifactStore`](crate::store::ArtifactStore) additionally coalesces
//!   racing computations of one *artifact*: when two distinct sweep points
//!   both need a design's shared stage (or its sync reference run, or its
//!   compiled datapath model), exactly one computes it and the other
//!   blocks briefly and is served — artifacts are computed exactly once
//!   per batch, never redundantly,
//! * **bounded worker concurrency** — request groups execute on at most
//!   [`DesyncService::concurrency`] threads, a bound that defaults to the
//!   worker count of the engine's [`DesyncRuntime`](crate::DesyncRuntime),
//! * **deterministic merging** — results come back **in request order**,
//!   regardless of scheduling, and
//! * **per-batch reports** — the batch's store traffic as one
//!   [`EngineReport`] delta ([`EngineReport::since`] the report taken
//!   before the batch: per-kind hits, misses, evictions and coalesced
//!   waits, with the resident weight after it), the queue's own
//!   [`QueueCounters`], and the simulation events committed.
//!
//! The service owns its engine, so the cache (and its capacity policy, see
//! [`StoreConfig`](crate::StoreConfig)) persists across batches: a second
//! batch over the same designs is served from the store, and a sweep after
//! a design batch reuses the construction stages the batch already built.
//!
//! # The asynchronous core underneath
//!
//! The entry points are thin synchronous wrappers over the async
//! submission front-end, [`ServiceQueue`] (module
//! [`submit`](crate::submit)). A caller that wants the full lifecycle —
//! non-blocking submission with per-request [`TicketHandle`](crate::TicketHandle)s
//! (`poll` / `try_wait` / `wait`), cooperative cancellation through
//! [`CancelToken`](crate::CancelToken)s checked at every
//! [`DesyncFlow`](crate::DesyncFlow) stage boundary, per-request deadlines,
//! and backpressure via a bounded queue with a configurable
//! [`AdmissionPolicy`](crate::AdmissionPolicy) — creates a queue directly
//! with [`ServiceQueue::new`] over the engine and keeps it alive across
//! requests.
//!
//! The wrappers stage a batch deterministically: the queue is **paused**,
//! every coalesced group is submitted, then the queue resumes — so the
//! whole batch is formed before any worker picks up work, exactly like the
//! historical all-at-once batch execution, and the queue's high-water mark
//! is pinned at the group count regardless of worker timing. Results are
//! bit-identical to the historical synchronous implementation; the reports
//! additionally carry the queue's counters ([`BatchReport::queue`]: high
//! water, sheds, contained panics, cancellations, deadline misses — all
//! zero for a healthy fault-free batch).
//!
//! # Multi-tenant scheduling
//!
//! Every request can carry a [`SubmitMeta`] — a
//! [`TenantId`](crate::TenantId) plus a [`Priority`](crate::Priority) lane
//! — via `with_meta` on [`ServiceRequest`] / [`SweepRequest`] /
//! [`CampaignRequest`]. The queue underneath dispatches tag → lane →
//! tenant-DRR → worker: strict priority lanes first, deficit-round-robin
//! across tenants within a lane, and a logical-clock aging bound that
//! promotes any request waiting too long (see [`submit`](crate::submit)
//! for the full lifecycle, aging bound and quota semantics). Requests with
//! different tags never coalesce — each tenant's traffic is dispatched
//! and accounted under its own tag, while the engine's store still
//! computes shared artifacts exactly once. The reports carry the
//! per-tenant and per-lane counter blocks
//! ([`QueueCounters::tenants`](crate::QueueCounters::tenants),
//! [`QueueCounters::lanes`](crate::QueueCounters::lanes) of
//! [`BatchReport::queue`]); untagged batches see one default-tenant entry
//! and behave exactly as before.
//!
//! Robustness guarantees (proven deterministically by the fault-injection
//! suite under the `failpoints` feature, see [`failpoints`](crate::failpoints)
//! for the failpoint catalog):
//!
//! * a worker panic is contained to *its* request — the ticket resolves
//!   [`DesyncError::StagePanicked`] naming the stage, the batch and the
//!   workers survive, and the store's in-flight leader/follower registry
//!   is never wedged (followers of a failed leader retry or surface the
//!   error),
//! * a cancelled request stops at the next stage boundary with
//!   [`DesyncError::Cancelled`]; an expired one with
//!   [`DesyncError::DeadlineExceeded`],
//! * a full bounded queue sheds with [`DesyncError::QueueFull`] (or blocks
//!   the submitter, by policy) instead of growing without bound.
//!
//! ```
//! use desync_core::{DesyncService, DesyncOptions, ServiceRequest};
//! use desync_netlist::{CellKind, CellLibrary, Netlist};
//!
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
//! let service = DesyncService::new();
//! // Three requests, two identical: the duplicate coalesces.
//! let requests = vec![
//!     ServiceRequest::new(&n, &library, DesyncOptions::default()),
//!     ServiceRequest::new(&n, &library, DesyncOptions::default()),
//!     ServiceRequest::new(&n, &library, DesyncOptions::default().with_margin(0.2)),
//! ];
//! let outcome = service.run_batch(&requests);
//! assert_eq!(outcome.results.len(), 3);
//! assert!(outcome.results.iter().all(|r| r.is_ok()));
//! assert_eq!(outcome.report.coalesced, 1);
//! assert_eq!(outcome.report.unique, 2);
//! ```

use crate::engine::{ArtifactKind, DesyncEngine, EngineReport};
use crate::error::DesyncError;
use crate::flow::DesyncDesign;
use crate::options::DesyncOptions;
use crate::submit::{
    QueueConfig, QueueCounters, QueueRequest, QueueVerifyRequest, ServiceQueue, SubmitMeta,
    SubmitOptions, Work,
};
use crate::verify::{EquivalenceReport, MultiSeedReport};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of work for [`DesyncService::run_batch`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceRequest<'a> {
    /// The synchronous netlist to desynchronize.
    pub netlist: &'a Netlist,
    /// The cell library to size against.
    pub library: &'a CellLibrary,
    /// The flow options.
    pub options: DesyncOptions,
    /// The scheduling tag (tenant + priority) the request submits under.
    pub meta: SubmitMeta,
}

impl<'a> ServiceRequest<'a> {
    /// Bundles one request (default scheduling tag).
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary, options: DesyncOptions) -> Self {
        Self {
            netlist,
            library,
            options,
            meta: SubmitMeta::default(),
        }
    }

    /// Returns the request with a scheduling tag.
    pub fn with_meta(mut self, meta: SubmitMeta) -> Self {
        self.meta = meta;
        self
    }
}

/// One verification point: a design request plus the stimulus `S` and
/// capture count its flow-equivalence check runs under. A [`SweepRequest`]
/// ([`DesyncService::run_sweep`]) carries a scalar [`VectorSource`]; a
/// [`CampaignRequest`] ([`DesyncService::run_campaign`]) carries an
/// interleaved [`PackedVectorSource`] of up to 64 stimulus lanes.
#[derive(Debug)]
pub struct VerifyRequest<'a, S> {
    /// The synchronous netlist to desynchronize and verify against.
    pub netlist: &'a Netlist,
    /// The cell library to size and simulate against.
    pub library: &'a CellLibrary,
    /// The flow options of this point (protocol, margin, …).
    pub options: DesyncOptions,
    /// The input stimulus of the co-simulation.
    pub stimulus: &'a S,
    /// Number of captures compared per register (per lane).
    pub cycles: usize,
    /// The scheduling tag (tenant + priority) the point submits under.
    pub meta: SubmitMeta,
}

impl<S> Clone for VerifyRequest<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for VerifyRequest<'_, S> {}

impl<'a, S> VerifyRequest<'a, S> {
    /// Bundles one verification point (default scheduling tag).
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        options: DesyncOptions,
        stimulus: &'a S,
        cycles: usize,
    ) -> Self {
        Self {
            netlist,
            library,
            options,
            stimulus,
            cycles,
            meta: SubmitMeta::default(),
        }
    }

    /// Returns the point with a scheduling tag.
    pub fn with_meta(mut self, meta: SubmitMeta) -> Self {
        self.meta = meta;
        self
    }
}

/// One verification sweep point for [`DesyncService::run_sweep`].
pub type SweepRequest<'a> = VerifyRequest<'a, VectorSource>;

/// One randomized-stimulus equivalence campaign point for
/// [`DesyncService::run_campaign`].
pub type CampaignRequest<'a> = VerifyRequest<'a, PackedVectorSource>;

/// The batch side of a request kind: how its duplicates coalesce, and the
/// queue request its group submits.
trait Batched {
    /// The owned queue request of the kind.
    type Queued: Work;

    /// The kind of batch the requests form.
    const KIND: BatchKind;

    /// The netlist and library the request desynchronizes.
    fn inputs(&self) -> (&Netlist, &CellLibrary);

    /// Whether two requests over the same interned netlist and library
    /// describe the identical computation and can therefore share one
    /// result. Requests with different scheduling tags never coalesce —
    /// each tenant's traffic is dispatched and accounted under its own tag,
    /// even for identical inputs (the store still computes the artifacts
    /// only once).
    fn coalesces_with(&self, other: &Self) -> bool;

    /// The queue request of this request over its interned inputs, plus its
    /// scheduling tag.
    fn queued(
        &self,
        netlist: Arc<Netlist>,
        library: Arc<CellLibrary>,
    ) -> (Self::Queued, SubmitMeta);
}

impl Batched for ServiceRequest<'_> {
    type Queued = QueueRequest;

    const KIND: BatchKind = BatchKind::Design;

    fn inputs(&self) -> (&Netlist, &CellLibrary) {
        (self.netlist, self.library)
    }

    fn coalesces_with(&self, other: &Self) -> bool {
        self.meta == other.meta && self.options == other.options
    }

    fn queued(
        &self,
        netlist: Arc<Netlist>,
        library: Arc<CellLibrary>,
    ) -> (QueueRequest, SubmitMeta) {
        (QueueRequest::new(netlist, library, self.options), self.meta)
    }
}

impl<S: Clone + PartialEq> Batched for VerifyRequest<'_, S>
where
    QueueVerifyRequest<S>: Work,
{
    type Queued = QueueVerifyRequest<S>;

    const KIND: BatchKind = BatchKind::Verification;

    fn inputs(&self) -> (&Netlist, &CellLibrary) {
        (self.netlist, self.library)
    }

    /// Same design computation and the same co-simulation inputs; the
    /// stimulus short-circuits on pointer identity before full equality.
    fn coalesces_with(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.options == other.options
            && self.cycles == other.cycles
            && (std::ptr::eq(self.stimulus, other.stimulus) || self.stimulus == other.stimulus)
    }

    fn queued(
        &self,
        netlist: Arc<Netlist>,
        library: Arc<CellLibrary>,
    ) -> (QueueVerifyRequest<S>, SubmitMeta) {
        let request = QueueVerifyRequest::new(
            netlist,
            library,
            self.options,
            self.stimulus.clone(),
            self.cycles,
        );
        (request, self.meta)
    }
}

/// The batch front-end: a [`DesyncEngine`] plus a worker-concurrency bound.
///
/// See the [module documentation](self) for the scheduling model.
#[derive(Debug)]
pub struct DesyncService {
    engine: Arc<DesyncEngine>,
    concurrency: usize,
}

impl Default for DesyncService {
    fn default() -> Self {
        Self::new()
    }
}

impl DesyncService {
    /// A service over a fresh unbounded engine, with request concurrency
    /// equal to the runtime's worker count.
    pub fn new() -> Self {
        Self::with_engine(DesyncEngine::new())
    }

    /// Wraps an existing engine (bring your own store capacity / runtime).
    /// The concurrency bound defaults to the engine runtime's worker count.
    pub fn with_engine(engine: DesyncEngine) -> Self {
        Self::with_shared_engine(Arc::new(engine))
    }

    /// Wraps an engine that is already shared (e.g. with long-lived
    /// [`ServiceQueue`]s). The concurrency bound defaults to the engine
    /// runtime's worker count.
    pub fn with_shared_engine(engine: Arc<DesyncEngine>) -> Self {
        let concurrency = engine.runtime().workers();
        Self {
            engine,
            concurrency,
        }
    }

    /// Returns the service with a different request-concurrency bound
    /// (clamped to at least one).
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency.max(1);
        self
    }

    /// The maximum number of request groups executing at once.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// The engine behind the service (for reports or direct flows).
    pub fn engine(&self) -> &DesyncEngine {
        &self.engine
    }

    /// Runs a batch of requests and returns one result per request, in
    /// request order, plus the batch report.
    ///
    /// Identical requests are coalesced onto one computation; distinct
    /// requests run concurrently on at most [`DesyncService::concurrency`]
    /// workers, every flow attached to the shared engine (so recurring
    /// artifacts come from the store even across coalescing groups).
    ///
    /// Per-request errors (invalid options, unsupported netlists) land in
    /// that request's result slot; they fail the request, never the batch.
    pub fn run_batch(&self, requests: &[ServiceRequest<'_>]) -> BatchOutcome<DesyncDesign> {
        self.run(requests, |design| design)
    }

    /// Runs a batch of verification sweep points and returns one
    /// [`EquivalenceReport`] result per point, **in request order**, plus
    /// the batch report.
    ///
    /// Scheduling is identical to [`DesyncService::run_batch`]. The
    /// engine's store guarantees each underlying artifact — shared
    /// construction stages, the per-design sync reference run, the
    /// per-design compiled datapath model, the margin-independent sizing
    /// analysis — is computed *exactly once* across the whole sweep (racing
    /// points coalesce at the store), so the merged reports are
    /// bit-identical to running the points serially in any order.
    ///
    /// Per-point errors (invalid options, missing stimulus, unsupported
    /// netlists) land in that point's result slot; they fail the point,
    /// never the sweep.
    pub fn run_sweep(&self, requests: &[SweepRequest<'_>]) -> BatchOutcome<EquivalenceReport> {
        self.run(requests, |report| report)
    }

    /// Runs a batch of randomized-stimulus equivalence campaign points and
    /// returns one [`MultiSeedReport`] result per point, **in request
    /// order**, plus the batch report and the total scalar-equivalent lane
    /// events.
    ///
    /// Each point is verified by a single bit-parallel co-simulation
    /// carrying all its stimulus lanes, so a 64-seed campaign point costs
    /// roughly one scalar [`DesyncService::run_sweep`] point. Scheduling is
    /// identical to `run_sweep`; [`BatchReport::events_simulated`] counts
    /// word-level committed events (one per packed net change),
    /// while [`CampaignOutcome::lane_events_simulated`] counts the
    /// scalar-equivalent work those words carried.
    pub fn run_campaign(&self, requests: &[CampaignRequest<'_>]) -> CampaignOutcome {
        // Lane events are summed once per executed group — coalesced
        // duplicates share a computation and must not double-count it.
        let mut lane_events_simulated = 0;
        let BatchOutcome { results, report } = self.run(requests, |point| {
            lane_events_simulated += point.lane_events;
            point.report
        });
        CampaignOutcome {
            results,
            report,
            lane_events_simulated,
        }
    }

    /// The one batch path: coalesces identical requests into groups,
    /// stages one submission per group on a paused [`ServiceQueue`],
    /// resumes it, fans each group's result (`finish`ed once per group)
    /// back out to every member slot in request order, and fills the
    /// [`BatchReport`] with the engine's store delta and the queue's
    /// counters.
    fn run<R: Batched, T: Clone>(
        &self,
        requests: &[R],
        mut finish: impl FnMut(<R::Queued as Work>::Output) -> T,
    ) -> BatchOutcome<T> {
        let before = self.engine.report();
        let started = Instant::now();

        // One group per distinct computation: the indices of the request
        // slots it serves, its leader first. The engine's interner decides
        // input identity, asked once per borrowed (netlist, library) pair —
        // requests borrowing the same objects name the same inputs, and
        // interning a netlist hashes and compares it whole. The scan
        // (quadratic in *groups*) then compares the interned `Arc`s by
        // address before the requests' own fields.
        let mut asked = HashMap::new();
        let interned: Vec<_> = requests
            .iter()
            .map(|request| {
                let (netlist, library) = request.inputs();
                let key = (netlist as *const Netlist, library as *const CellLibrary);
                let entry = asked.entry(key).or_insert_with(|| {
                    let netlist = self.engine.intern_netlist(netlist);
                    (netlist, self.engine.intern_library(library))
                });
                entry.clone()
            })
            .collect();
        let coalesce = |a: usize, b: usize| {
            Arc::ptr_eq(&interned[a].0, &interned[b].0)
                && Arc::ptr_eq(&interned[a].1, &interned[b].1)
                && requests[a].coalesces_with(&requests[b])
        };
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for index in 0..requests.len() {
            match groups
                .iter_mut()
                .find(|members| coalesce(members[0], index))
            {
                Some(members) => members.push(index),
                None => groups.push(vec![index]),
            }
        }

        // Execute each group once through the async submission core. The
        // queue is paused while the batch stages its groups and resumed
        // only when all of them are enqueued: the whole batch is formed
        // before the first worker picks anything up — reproducing the
        // historical all-at-once batch semantics and pinning the queue's
        // high-water mark at the group count, independent of scheduling.
        let workers = self.concurrency.clamp(1, groups.len().max(1));
        let (group_results, counters, events_simulated) = if groups.is_empty() {
            (Vec::new(), QueueCounters::default(), 0)
        } else {
            let queue =
                ServiceQueue::new(Arc::clone(&self.engine), QueueConfig::with_workers(workers));
            queue.pause();
            let tickets: Vec<_> = groups
                .iter()
                .map(|members| {
                    let (netlist, library) = interned[members[0]].clone();
                    let (request, meta) = requests[members[0]].queued(netlist, library);
                    queue.submit_work(request, SubmitOptions::default().with_meta(meta))
                })
                .collect();
            queue.resume();
            let results: Vec<Result<T, DesyncError>> = tickets
                .into_iter()
                .map(|ticket| ticket.wait().map(&mut finish))
                .collect();
            (results, queue.counters(), queue.events_simulated())
        };

        // Fan the shared results back out to every coalesced request slot:
        // clones only for the coalesced duplicates, the group's own result
        // is moved.
        let mut slots: Vec<Option<Result<T, DesyncError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (result, members) in group_results.into_iter().zip(&groups) {
            for &index in &members[1..] {
                slots[index] = Some(result.clone());
            }
            slots[members[0]] = Some(result);
        }
        let results: Vec<Result<T, DesyncError>> = slots
            .into_iter()
            .map(|slot| slot.expect("every request mapped to a group"))
            .collect();

        let report = BatchReport {
            kind: R::KIND,
            requests: requests.len(),
            unique: groups.len(),
            coalesced: requests.len() - groups.len(),
            workers,
            wall: started.elapsed(),
            store: self.engine.report().since(&before),
            events_simulated,
            lint_rejections: results
                .iter()
                .filter(|r| matches!(r, Err(DesyncError::LintRejected(_))))
                .count(),
            failures: results.iter().filter(|r| r.is_err()).count(),
            queue: counters,
        };
        BatchOutcome { results, report }
    }
}

/// Everything one [`DesyncService`] batch produces.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// One result per submitted request, in request order. Coalesced
    /// requests hold clones of their group's shared result.
    pub results: Vec<Result<T, DesyncError>>,
    /// The batch statistics.
    pub report: BatchReport,
}

/// Everything [`DesyncService::run_campaign`] produces.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per submitted campaign point, in request order.
    /// Coalesced points hold clones of their group's shared report.
    pub results: Vec<Result<MultiSeedReport, DesyncError>>,
    /// The campaign statistics ([`BatchReport::events_simulated`] counts
    /// word-level committed events — one per packed net change).
    pub report: BatchReport,
    /// Scalar-equivalent lane events the campaign's simulations committed:
    /// what 64 scalar sweep points would have had to simulate to produce
    /// the same per-lane verdicts. The packed-over-scalar throughput win
    /// is this number against the same wall clock.
    pub lane_events_simulated: usize,
}

/// What a [`BatchReport`]'s requests were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Design requests ([`DesyncService::run_batch`]).
    Design,
    /// Verification points ([`DesyncService::run_sweep`] and
    /// [`DesyncService::run_campaign`]).
    Verification,
}

/// Statistics of one [`DesyncService`] batch, whatever its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Design requests or verification points.
    pub kind: BatchKind,
    /// Requests (or points) submitted.
    pub requests: usize,
    /// Distinct computations after coalescing.
    pub unique: usize,
    /// Requests served by another request's computation
    /// (`requests - unique`).
    pub coalesced: usize,
    /// Worker threads the batch actually used.
    pub workers: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// The engine's store traffic during the batch
    /// ([`EngineReport::since`] the report taken before it): counters are
    /// the batch's, levels (entries, resident weight) those after it.
    pub store: EngineReport,
    /// Word-level events the batch's simulations committed (zero for a
    /// design batch); the same on any worker count.
    pub events_simulated: usize,
    /// Requests rejected at admission by the static pre-flight lint
    /// (their result slot holds [`DesyncError::LintRejected`] with the
    /// witness-bearing report; counted inside `failures` too).
    pub lint_rejections: usize,
    /// Requests whose result is an error.
    pub failures: usize,
    /// The counters of the queue the batch ran on. With the
    /// pause-stage-resume batch path its high water equals `unique` (the
    /// whole batch is staged before execution starts), and its shed count
    /// is zero (the queue is unbounded).
    pub queue: QueueCounters,
}

impl BatchReport {
    /// Word-level events the batch's simulations committed.
    pub fn events_simulated(&self) -> usize {
        self.events_simulated
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (batch, unit) = match self.kind {
            BatchKind::Design => ("service batch", "request"),
            BatchKind::Verification => ("verification sweep", "point"),
        };
        writeln!(
            f,
            "{batch}: {} {unit}(s), {} unique ({} coalesced), {} worker(s), wall {} us",
            self.requests,
            self.unique,
            self.coalesced,
            self.workers,
            self.wall.as_micros()
        )?;
        let store = &self.store;
        let sync = store.kind(ArtifactKind::SyncRun);
        writeln!(
            f,
            "  store: {} hit(s) / {} miss(es), {} eviction(s), {} weight resident",
            store.total_hits(),
            store.total_misses(),
            store.total_evictions(),
            store.resident_weight
        )?;
        writeln!(
            f,
            "  reuse: {} compiled-model reuse(s), {} sizing rebind(s), \
             sync runs {} hit(s) / {} miss(es), {} in-flight coalesced",
            store.kind(ArtifactKind::Compiled).hits,
            store.kind(ArtifactKind::Sizing).hits,
            sync.hits,
            sync.misses,
            store.store_coalesced,
        )?;
        writeln!(
            f,
            "  {} event(s) simulated; {} failure(s)",
            self.events_simulated, self.failures
        )?;
        writeln!(
            f,
            "  lint: {} rejection(s) at admission, {} report(s) served from cache",
            self.lint_rejections,
            store.kind(ArtifactKind::Lint).hits
        )?;
        let queue = &self.queue;
        write!(
            f,
            "  queue: high water {}, {} shed, {} panic(s) contained, {} cancelled, {} past deadline",
            queue.high_water,
            queue.shed,
            queue.panics_contained,
            queue.cancelled,
            queue.deadline_exceeded
        )?;
        for t in &queue.tenants {
            write!(
                f,
                "\n  tenant {}: {} submitted, {} dispatched, {} shed, \
                 waits sum {} max {} tick(s), high water {}",
                t.tenant,
                t.submitted,
                t.dispatched,
                t.shed,
                t.wait_ticks,
                t.max_wait_ticks,
                t.high_water
            )?;
        }
        if queue.lanes.iter().any(|l| l.submitted > 0) {
            write!(f, "\n  lanes:")?;
            for (i, l) in queue.lanes.iter().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                write!(f, "{sep}{} {}/{}", l.priority, l.dispatched, l.submitted)?;
            }
            let aged: usize = queue.lanes.iter().map(|l| l.aged_promotions).sum();
            write!(f, " dispatched/submitted, {aged} aged promotion(s)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn batch_results_match_detached_flows_in_request_order() {
        let n = pipeline3();
        let mut other = pipeline3();
        other.set_name("other");
        let library = CellLibrary::generic_90nm();
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2));
        let requests = vec![
            ServiceRequest::new(&n, &library, DesyncOptions::default()),
            ServiceRequest::new(&other, &library, DesyncOptions::default()),
            ServiceRequest::new(&n, &library, DesyncOptions::default().with_margin(0.2)),
        ];
        let outcome = service.run_batch(&requests);
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.report.coalesced, 0);
        assert_eq!(outcome.report.unique, 3);
        for (request, result) in requests.iter().zip(&outcome.results) {
            let fresh = crate::DesyncFlow::new(request.netlist, request.library, request.options)
                .unwrap()
                .design()
                .unwrap();
            assert_eq!(result.as_ref().unwrap(), &fresh);
        }
    }

    #[test]
    fn identical_requests_coalesce_onto_one_computation() {
        let n = pipeline3();
        let library = CellLibrary::generic_90nm();
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(4);
        let requests: Vec<_> = (0..6)
            .map(|_| ServiceRequest::new(&n, &library, DesyncOptions::default()))
            .collect();
        let outcome = service.run_batch(&requests);
        assert_eq!(outcome.report.requests, 6);
        assert_eq!(outcome.report.unique, 1);
        assert_eq!(outcome.report.coalesced, 5);
        assert_eq!(outcome.report.failures, 0);
        // One computation: the engine saw exactly one miss per construction
        // stage and zero hits (nobody raced the same key).
        assert_eq!(outcome.report.store.total_misses(), 4);
        assert_eq!(outcome.report.store.total_hits(), 0);
        let first = outcome.results[0].as_ref().unwrap();
        for result in &outcome.results[1..] {
            assert_eq!(result.as_ref().unwrap(), first);
        }
        // A second batch over the same request is served from the store.
        let outcome = service.run_batch(&requests[..2]);
        assert_eq!(outcome.report.store.total_hits(), 4);
        assert_eq!(outcome.report.store.total_misses(), 0);
        // The pre-flight lint of a clean design is cached alongside the
        // stages (counted separately, so the stage numbers above hold).
        assert_eq!(outcome.report.store.kind(ArtifactKind::Lint).hits, 1);
        assert_eq!(outcome.report.lint_rejections, 0);
        let text = outcome.report.to_string();
        assert!(text.contains("coalesced"), "{text}");
        assert!(text.contains("eviction"), "{text}");
    }

    #[test]
    fn per_request_errors_fail_only_their_slot() {
        let n = pipeline3();
        let mut comb = Netlist::new("comb");
        let a = comb.add_input("a");
        let y = comb.add_output("y");
        comb.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let library = CellLibrary::generic_90nm();
        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let requests = vec![
            ServiceRequest::new(&n, &library, DesyncOptions::default()),
            ServiceRequest::new(&comb, &library, DesyncOptions::default()),
            ServiceRequest::new(&n, &library, DesyncOptions::default().with_margin(-1.0)),
        ];
        let outcome = service.run_batch(&requests);
        assert!(outcome.results[0].is_ok());
        // The register-free netlist is turned away at admission: the lint
        // gate catches FL001 before any stage runs.
        match &outcome.results[1] {
            Err(DesyncError::LintRejected(report)) => {
                assert!(report.has(desync_lint::LintCode::NoRegisters), "{report}");
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        // Invalid options still fail at flow construction, before lint.
        assert!(matches!(
            outcome.results[2],
            Err(DesyncError::InvalidOptions(_))
        ));
        assert_eq!(outcome.report.failures, 2);
        assert_eq!(outcome.report.lint_rejections, 1);
    }

    #[test]
    fn multi_driven_design_is_rejected_at_admission_without_stage_work() {
        // pipeline3 with a duplicate driver on q0: registers exist, so only
        // NL001 stands between this design and the construction stages.
        let mut n = pipeline3();
        let a = n.find_net("a").unwrap();
        let q0 = n.find_net("q0").unwrap();
        n.add_gate("dup", CellKind::Buf, &[a], q0).unwrap();
        let library = CellLibrary::generic_90nm();
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2));
        let requests: Vec<_> = (0..3)
            .map(|_| ServiceRequest::new(&n, &library, DesyncOptions::default()))
            .collect();
        let outcome = service.run_batch(&requests);
        for result in &outcome.results {
            match result {
                Err(DesyncError::LintRejected(report)) => {
                    let d = report.find(desync_lint::LintCode::MultiDrivenNet).unwrap();
                    assert_eq!(d.subject.as_str(), "q0");
                    let drivers: Vec<_> = d.witness.iter().map(|s| s.as_str()).collect();
                    assert_eq!(drivers, vec!["r0", "dup"], "witness in cell-id order");
                }
                other => panic!("expected a lint rejection, got {other:?}"),
            }
        }
        assert_eq!(outcome.report.lint_rejections, 3);
        assert_eq!(outcome.report.failures, 3);
        // Zero stage computations: the stage-kind cache saw no traffic at
        // all — the lint pre-flight was the only work the batch did.
        assert_eq!(outcome.report.store.total_misses(), 0);
        assert_eq!(outcome.report.store.total_hits(), 0);
        // Resubmitting serves the cached lint report instead of re-linting.
        let outcome = service.run_batch(&requests[..1]);
        assert_eq!(outcome.report.lint_rejections, 1);
        assert_eq!(outcome.report.store.kind(ArtifactKind::Lint).hits, 1);
        assert_eq!(outcome.report.store.total_misses(), 0);
        let text = outcome.report.to_string();
        assert!(text.contains("1 rejection(s) at admission"), "{text}");
        assert!(text.contains("1 report(s) served from cache"), "{text}");
    }

    #[test]
    fn lint_rejections_are_bit_identical_across_worker_counts() {
        let mut bad = pipeline3();
        let a = bad.find_net("a").unwrap();
        let q0 = bad.find_net("q0").unwrap();
        bad.add_gate("dup", CellKind::Buf, &[a], q0).unwrap();
        let good = pipeline3();
        let library = CellLibrary::generic_90nm();
        let run = |concurrency: usize| {
            let service = DesyncService::with_engine(DesyncEngine::with_workers(1))
                .with_concurrency(concurrency);
            let requests = vec![
                ServiceRequest::new(&bad, &library, DesyncOptions::default()),
                ServiceRequest::new(&good, &library, DesyncOptions::default()),
                ServiceRequest::new(&bad, &library, DesyncOptions::default().with_margin(0.2)),
            ];
            service.run_batch(&requests).results
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel, "results must not depend on scheduling");
        assert!(matches!(serial[0], Err(DesyncError::LintRejected(_))));
        assert!(serial[1].is_ok());
        // Same netlist under different options: the same lint verdict,
        // payload-equal diagnostics and witnesses.
        assert_eq!(serial[0], serial[2]);
    }

    #[test]
    fn sweep_points_are_gated_by_admission_too() {
        let mut bad = pipeline3();
        let a = bad.find_net("a").unwrap();
        let q0 = bad.find_net("q0").unwrap();
        bad.add_gate("dup", CellKind::Buf, &[a], q0).unwrap();
        let library = CellLibrary::generic_90nm();
        let stim = VectorSource::pseudo_random(vec![a], 3);
        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let requests = vec![SweepRequest::new(
            &bad,
            &library,
            DesyncOptions::default(),
            &stim,
            8,
        )];
        let outcome = service.run_sweep(&requests);
        assert!(matches!(
            outcome.results[0],
            Err(DesyncError::LintRejected(_))
        ));
        assert_eq!(outcome.report.lint_rejections, 1);
        assert_eq!(outcome.report.failures, 1);
        // No stage, simulation or compile work happened for the bad point.
        assert_eq!(outcome.report.store.total_misses(), 0);
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).misses, 0);
        assert_eq!(outcome.report.events_simulated(), 0);
        let text = outcome.report.to_string();
        assert!(text.contains("rejection(s) at admission"), "{text}");
    }

    #[test]
    fn sweep_results_match_detached_serial_flows_in_request_order() {
        use crate::pipeline::DesyncFlow;
        use crate::Protocol;

        let n = pipeline3();
        let library = CellLibrary::generic_90nm();
        let a = n.find_net("a").unwrap();
        let stim = VectorSource::pseudo_random(vec![a], 11);
        let service = DesyncService::with_engine(DesyncEngine::with_workers(3)).with_concurrency(3);
        let mut requests = Vec::new();
        for &protocol in Protocol::all() {
            for margin in [0.05, 0.2] {
                let options = DesyncOptions::default()
                    .with_protocol(protocol)
                    .with_margin(margin);
                requests.push(SweepRequest::new(&n, &library, options, &stim, 12));
            }
        }
        // A duplicate of the first point: must coalesce onto one check.
        requests.push(requests[0]);

        let outcome = service.run_sweep(&requests);
        assert_eq!(outcome.results.len(), requests.len());
        assert_eq!(outcome.report.requests, 7);
        assert_eq!(outcome.report.unique, 6);
        assert_eq!(outcome.report.coalesced, 1);
        assert_eq!(outcome.report.failures, 0);
        // Deterministic merge: each slot equals a fresh detached flow.
        for (request, result) in requests.iter().zip(&outcome.results) {
            let mut fresh =
                DesyncFlow::new(request.netlist, request.library, request.options).unwrap();
            fresh.set_verification(request.stimulus.clone(), request.cycles);
            assert_eq!(result.as_ref().unwrap(), fresh.verified().unwrap());
        }
        // Shared work was computed exactly once: one sync reference, one
        // sync + one datapath model, one sizing analysis (the second
        // margin re-bound from it).
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).misses, 1);
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).hits, 5);
        assert_eq!(outcome.report.store.kind(ArtifactKind::Compiled).hits, 5);
        assert_eq!(outcome.report.store.kind(ArtifactKind::Sizing).hits, 1);
        assert!(outcome.report.events_simulated() > 0);
        let text = outcome.report.to_string();
        assert!(text.contains("verification sweep"), "{text}");
        assert!(text.contains("rebind"), "{text}");
    }

    #[test]
    fn campaign_results_match_scalar_sweep_verdicts_per_lane() {
        use crate::Protocol;

        let n = pipeline3();
        let library = CellLibrary::generic_90nm();
        let a = n.find_net("a").unwrap();
        let seeds = [3u64, 5, 8, 13, 21];
        let packed = PackedVectorSource::pseudo_random(vec![a], &seeds);
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(2);
        let mut requests = Vec::new();
        for &protocol in Protocol::all() {
            let options = DesyncOptions::default().with_protocol(protocol);
            requests.push(CampaignRequest::new(&n, &library, options, &packed, 12));
        }
        // A duplicate of the first point: must coalesce onto one check.
        requests.push(requests[0]);

        let outcome = service.run_campaign(&requests);
        assert_eq!(outcome.results.len(), requests.len());
        assert_eq!(outcome.report.requests, 4);
        assert_eq!(outcome.report.unique, 3);
        assert_eq!(outcome.report.coalesced, 1);
        assert_eq!(outcome.report.failures, 0);
        // One packed sync reference shared across protocols.
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).misses, 1);
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).hits, 2);
        // The packed word events are a fraction of the lane-equivalent
        // work the campaign actually verified.
        assert!(outcome.lane_events_simulated > outcome.report.events_simulated());

        // Each lane's verdict equals the scalar sweep point with that seed.
        let scalar_service =
            DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(2);
        for (request, result) in requests.iter().zip(&outcome.results) {
            let report = result.as_ref().unwrap();
            assert_eq!(report.lanes, seeds.len());
            let scalar_stims: Vec<_> = seeds
                .iter()
                .map(|&seed| VectorSource::pseudo_random(vec![a], seed))
                .collect();
            let scalar_requests: Vec<_> = scalar_stims
                .iter()
                .map(|stim| {
                    SweepRequest::new(request.netlist, request.library, request.options, stim, 12)
                })
                .collect();
            let scalar = scalar_service.run_sweep(&scalar_requests);
            for (lane, scalar_result) in scalar.results.iter().enumerate() {
                let scalar_report = scalar_result.as_ref().unwrap();
                assert_eq!(
                    report.lane_equivalence[lane], scalar_report.equivalence,
                    "lane {lane} verdict must equal the scalar sweep point"
                );
                assert_eq!(report.compared_cycles[lane], scalar_report.compared_cycles);
            }
        }
    }

    #[test]
    fn sweep_errors_fail_only_their_point() {
        let n = pipeline3();
        let library = CellLibrary::generic_90nm();
        let a = n.find_net("a").unwrap();
        let stim = VectorSource::pseudo_random(vec![a], 3);
        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let requests = vec![
            SweepRequest::new(&n, &library, DesyncOptions::default(), &stim, 8),
            SweepRequest::new(
                &n,
                &library,
                DesyncOptions::default().with_margin(-1.0),
                &stim,
                8,
            ),
        ];
        let outcome = service.run_sweep(&requests);
        assert!(outcome.results[0].is_ok());
        assert!(matches!(
            outcome.results[1],
            Err(DesyncError::InvalidOptions(_))
        ));
        assert_eq!(outcome.report.failures, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let outcome = service.run_batch(&[]);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.report.requests, 0);
        assert_eq!(outcome.report.unique, 0);
        assert_eq!(outcome.report.coalesced, 0);
    }

    /// The doc-example two-register pipeline.
    fn pipe() -> Netlist {
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

    /// Every line of a batch report but the header, which carries the wall
    /// time.
    fn body(report: &BatchReport) -> String {
        let text = report.to_string();
        text.split_once('\n').unwrap().1.to_string()
    }

    #[test]
    fn engine_and_batch_report_text_is_pinned() {
        // One single-worker history over a bounded store: a design batch
        // with a duplicate and an invalid request, then a sweep over the
        // three protocols. Every count below is deterministic.
        let n = pipe();
        let library = CellLibrary::generic_90nm();
        let a = n.find_net("a").unwrap();
        let service = DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            crate::StoreConfig::default().with_capacity(400),
            crate::DesyncRuntime::with_workers(1),
        ));
        let options = DesyncOptions::default();
        let designs = service.run_batch(&[
            ServiceRequest::new(&n, &library, options),
            ServiceRequest::new(&n, &library, options),
            ServiceRequest::new(&n, &library, options.with_margin(0.2)),
            ServiceRequest::new(&n, &library, options.with_margin(-1.0)),
        ]);
        let stim = VectorSource::pseudo_random(vec![a], 5);
        let points: Vec<_> = crate::Protocol::all()
            .iter()
            .map(|&p| SweepRequest::new(&n, &library, options.with_protocol(p), &stim, 10))
            .collect();
        let sweep = service.run_sweep(&points);

        assert_eq!(
            service.engine().report().to_string(),
            "desync engine: 1 netlist(s), 1 library(ies), store 399 / 400 weight resident
  stage        entries    hits  misses evicted   weight
  clustered          1       4       1       0        5
  latched            1       4       1       0       20
  timed              1       3       2       1        4
  controlled         2       1       4       2      192
  sync-run           1       2       1       0       30
  compiled           2       2       2       0       84
  sizing             0       1       1       1        0
  lint               1       4       1       0       64
  stage total: 12 hit(s) / 8 miss(es) (60.0 % hit rate), 4 eviction(s) overall, \
0 coalesced in-flight wait(s) (sync-run / compiled / sizing / lint caches counted separately above)"
        );
        let header = designs.report.to_string();
        assert!(
            header.starts_with(
                "service batch: 4 request(s), 3 unique (1 coalesced), 1 worker(s), wall "
            ),
            "{header}"
        );
        assert_eq!(
            body(&designs.report),
            "  store: 2 hit(s) / 6 miss(es), 0 eviction(s), 329 weight resident
  reuse: 0 compiled-model reuse(s), 1 sizing rebind(s), sync runs 0 hit(s) / 0 miss(es), \
0 in-flight coalesced
  0 event(s) simulated; 1 failure(s)
  lint: 0 rejection(s) at admission, 1 report(s) served from cache
  queue: high water 3, 0 shed, 0 panic(s) contained, 0 cancelled, 0 past deadline
  tenant 0: 3 submitted, 3 dispatched, 0 shed, waits sum 3 max 2 tick(s), high water 3
  lanes: high 0/0, normal 3/3, low 0/0 dispatched/submitted, 0 aged promotion(s)"
        );
        let header = sweep.report.to_string();
        assert!(
            header.starts_with(
                "verification sweep: 3 point(s), 3 unique (0 coalesced), 1 worker(s), wall "
            ),
            "{header}"
        );
        assert_eq!(
            body(&sweep.report),
            "  store: 10 hit(s) / 2 miss(es), 4 eviction(s), 399 weight resident
  reuse: 2 compiled-model reuse(s), 0 sizing rebind(s), sync runs 2 hit(s) / 1 miss(es), \
0 in-flight coalesced
  539 event(s) simulated; 0 failure(s)
  lint: 0 rejection(s) at admission, 3 report(s) served from cache
  queue: high water 3, 0 shed, 0 panic(s) contained, 0 cancelled, 0 past deadline
  tenant 0: 3 submitted, 3 dispatched, 0 shed, waits sum 3 max 2 tick(s), high water 3
  lanes: high 0/0, normal 3/3, low 0/0 dispatched/submitted, 0 aged promotion(s)"
        );
    }

    #[test]
    fn batch_store_delta_is_the_engine_report_since_the_batch_began() {
        let n = pipe();
        let library = CellLibrary::generic_90nm();
        let a = n.find_net("a").unwrap();
        let stim = VectorSource::pseudo_random(vec![a], 5);
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2));
        let options = DesyncOptions::default();
        let designs = [
            ServiceRequest::new(&n, &library, options),
            ServiceRequest::new(&n, &library, options.with_margin(0.2)),
        ];
        let points: Vec<_> = crate::Protocol::all()
            .iter()
            .map(|&p| SweepRequest::new(&n, &library, options.with_protocol(p), &stim, 10))
            .collect();

        let before = service.engine().report();
        let outcome = service.run_batch(&designs);
        assert_eq!(
            outcome.report.store,
            service.engine().report().since(&before)
        );
        let before = service.engine().report();
        let outcome = service.run_sweep(&points);
        assert_eq!(
            outcome.report.store,
            service.engine().report().since(&before)
        );
        assert_eq!(outcome.report.store.kind(ArtifactKind::SyncRun).misses, 1);

        // A repeat of the same sweep is served whole from the store.
        let before = service.engine().report();
        let repeat = service.run_sweep(&points);
        let delta = &repeat.report.store;
        assert_eq!(*delta, service.engine().report().since(&before));
        for kind in ArtifactKind::ALL {
            let row = delta.kind(kind);
            assert_eq!((row.misses, row.evictions), (0, 0), "{}", kind.name());
        }
        assert!(delta.total_hits() > 0);
        // Levels are the engine's after the batch, not differenced.
        assert_eq!(delta.resident_weight, before.resident_weight);
        assert_eq!(delta.netlists, 1);
    }
}
