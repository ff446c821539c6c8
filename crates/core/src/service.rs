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
//!   group runs the `desync-lint` pre-flight
//!   ([`DesyncFlow::lint`](crate::DesyncFlow::lint), cached per netlist in
//!   the engine's store). A design with error-severity diagnostics is
//!   rejected with [`DesyncError::LintRejected`] carrying the full
//!   witness-bearing report — the request fails in O(V+E) with zero stage
//!   computations, and [`BatchReport::lint_rejections`] /
//!   [`BatchReport::lint_cache_hits`] account for the traffic,
//! * **coalesced scheduling** — identical in-flight requests are grouped
//!   onto *one* computation; duplicates receive clones of the shared
//!   result. Below the request level, the engine's
//!   [`ArtifactStore`](crate::store::ArtifactStore) additionally coalesces
//!   racing computations of one *artifact*: when two distinct sweep points
//!   both need a design's shared stage (or its sync reference run, or its
//!   compiled datapath model), exactly one computes it and the other
//!   blocks briefly and is served — artifacts are computed exactly once
//!   per batch, never redundantly,
//! * **bounded worker concurrency** — request groups execute on at most
//!   [`DesyncService::concurrency`] threads, a bound derived from the
//!   engine's [`DesyncRuntime`](crate::DesyncRuntime) so one handle sizes both the request
//!   workers and the matched-delay sizing pool they fan into,
//! * **deterministic merging** — results come back **in request order**,
//!   regardless of scheduling, and
//! * **per-batch reports** — the engine's cache-hit, eviction, reuse and
//!   resident-weight deltas plus the simulated events per worker.
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
//! additionally carry the queue's traffic counters (high water, sheds,
//! contained panics, cancellations, deadline misses — all zero for a
//! healthy fault-free batch).
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
//! per-tenant and per-lane counter blocks ([`BatchReport::tenants`],
//! [`BatchReport::lanes`]); untagged batches see one default-tenant
//! entry and behave exactly as before.
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

use crate::engine::DesyncEngine;
use crate::error::DesyncError;
use crate::flow::DesyncDesign;
use crate::options::DesyncOptions;
use crate::submit::{
    LaneCounters, QueueConfig, QueueCounters, QueueRequest, QueueVerifyRequest, ServiceQueue,
    SubmitMeta, SubmitOptions, TenantCounters, Work,
};
use crate::verify::{EquivalenceReport, MultiSeedReport};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether two `(netlist, library)` pairs denote the identical computation
/// inputs. Short-circuits on pointer identity, then a structural hash,
/// before any deep equality.
fn same_inputs(
    a_netlist: &Netlist,
    a_library: &CellLibrary,
    b_netlist: &Netlist,
    b_library: &CellLibrary,
) -> bool {
    let same_netlist = std::ptr::eq(a_netlist, b_netlist)
        || (a_netlist.structural_hash() == b_netlist.structural_hash() && a_netlist == b_netlist);
    same_netlist && (std::ptr::eq(a_library, b_library) || a_library == b_library)
}

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

/// A co-simulation stimulus, identified by its content digest (which, for
/// a packed source, covers lane count, lane order and per-lane content).
trait Stimulus: Clone + PartialEq {
    fn digest(&self) -> u64;
}

impl Stimulus for VectorSource {
    fn digest(&self) -> u64 {
        self.content_digest()
    }
}

impl Stimulus for PackedVectorSource {
    fn digest(&self) -> u64 {
        self.content_digest()
    }
}

/// The batch side of a request kind: how its duplicates coalesce, and the
/// queue request its group submits.
trait Batched: Copy {
    /// The owned queue request of the kind.
    type Queued: Work;

    /// The kind of batch the requests form.
    const KIND: BatchKind;

    /// Whether two requests describe the identical computation and can
    /// therefore share one result. Requests with different scheduling
    /// tags never coalesce — each tenant's traffic is dispatched and
    /// accounted under its own tag, even for identical inputs (the store
    /// still computes the artifacts only once).
    fn coalesces_with(&self, other: &Self) -> bool;

    /// The queue request of this request, its inputs interned in
    /// `engine`, plus its scheduling tag.
    fn queued(&self, engine: &DesyncEngine) -> (Self::Queued, SubmitMeta);
}

impl Batched for ServiceRequest<'_> {
    type Queued = QueueRequest;

    const KIND: BatchKind = BatchKind::Design;

    fn coalesces_with(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.options == other.options
            && same_inputs(self.netlist, self.library, other.netlist, other.library)
    }

    fn queued(&self, engine: &DesyncEngine) -> (QueueRequest, SubmitMeta) {
        let request = QueueRequest::new(
            engine.intern_netlist(self.netlist),
            engine.intern_library(self.library),
            self.options,
        );
        (request, self.meta)
    }
}

impl<S: Stimulus> Batched for VerifyRequest<'_, S>
where
    QueueVerifyRequest<S>: Work,
{
    type Queued = QueueVerifyRequest<S>;

    const KIND: BatchKind = BatchKind::Verification;

    /// Same design computation and the same co-simulation inputs. The
    /// stimulus short-circuits on pointer identity, then the content
    /// digest, and — like the netlist's structural-hash check beside it —
    /// confirms a digest match with full equality so a 64-bit collision can
    /// never hand one point another point's report.
    fn coalesces_with(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.options == other.options
            && self.cycles == other.cycles
            && (std::ptr::eq(self.stimulus, other.stimulus)
                || (self.stimulus.digest() == other.stimulus.digest()
                    && self.stimulus == other.stimulus))
            && same_inputs(self.netlist, self.library, other.netlist, other.library)
    }

    fn queued(&self, engine: &DesyncEngine) -> (QueueVerifyRequest<S>, SubmitMeta) {
        let request = QueueVerifyRequest::new(
            engine.intern_netlist(self.netlist),
            engine.intern_library(self.library),
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
    /// equal to the runtime's sizing-worker count.
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
    pub fn run_batch(&self, requests: &[ServiceRequest<'_>]) -> ServiceOutcome {
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
    pub fn run_sweep(&self, requests: &[SweepRequest<'_>]) -> SweepOutcome {
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
    /// identical to `run_sweep`; the [`BatchReport`]'s `per_worker_events`
    /// count word-level committed events (one per packed net change),
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
    /// [`BatchReport`] from the engine and queue counter deltas.
    fn run<R: Batched, T: Clone>(
        &self,
        requests: &[R],
        mut finish: impl FnMut(<R::Queued as Work>::Output) -> T,
    ) -> BatchOutcome<T> {
        let before = self.engine.report();
        let started = Instant::now();

        // One group per distinct computation, remembering which request
        // slots it serves. The scan is quadratic in *groups* but each
        // comparison short-circuits on a pointer check, then a structural
        // hash, before any deep equality.
        let mut groups: Vec<(R, Vec<usize>)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(leader, _)| leader.coalesces_with(request))
            {
                Some((_, members)) => members.push(index),
                None => groups.push((*request, vec![index])),
            }
        }

        // Execute each group once through the async submission core. The
        // queue is paused while the batch stages its groups and resumed
        // only when all of them are enqueued: the whole batch is formed
        // before the first worker picks anything up — reproducing the
        // historical all-at-once batch semantics and pinning the queue's
        // high-water mark at the group count, independent of scheduling.
        let workers = self.concurrency.clamp(1, groups.len().max(1));
        let (group_results, counters, per_worker_events) = if groups.is_empty() {
            (Vec::new(), QueueCounters::default(), vec![0; workers])
        } else {
            let queue =
                ServiceQueue::new(Arc::clone(&self.engine), QueueConfig::with_workers(workers));
            queue.pause();
            let tickets: Vec<_> = groups
                .iter()
                .map(|(leader, _)| {
                    let (request, meta) = leader.queued(&self.engine);
                    queue.submit_work(request, SubmitOptions::default().with_meta(meta))
                })
                .collect();
            queue.resume();
            let results: Vec<Result<T, DesyncError>> = tickets
                .into_iter()
                .map(|ticket| ticket.wait().map(&mut finish))
                .collect();
            (results, queue.counters(), queue.worker_events())
        };

        // Fan the shared results back out to every coalesced request slot:
        // clones only for the coalesced duplicates, the group's own result
        // is moved.
        let mut slots: Vec<Option<Result<T, DesyncError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (result, (_, members)) in group_results.into_iter().zip(&groups) {
            for &index in &members[1..] {
                slots[index] = Some(result.clone());
            }
            slots[members[0]] = Some(result);
        }
        let results: Vec<Result<T, DesyncError>> = slots
            .into_iter()
            .map(|slot| slot.expect("every request mapped to a group"))
            .collect();

        let wall = started.elapsed();
        let after = self.engine.report();
        let report = BatchReport {
            kind: R::KIND,
            requests: requests.len(),
            unique: groups.len(),
            coalesced: requests.len() - groups.len(),
            workers,
            wall,
            cache_hits: after.total_hits() - before.total_hits(),
            cache_misses: after.total_misses() - before.total_misses(),
            evictions: after.total_evictions() - before.total_evictions(),
            resident_weight: after.resident_weight,
            compile_reuses: after.compiled_model_hits - before.compiled_model_hits,
            rebinds: after.sizing_hits - before.sizing_hits,
            sync_run_hits: after.sync_run_hits - before.sync_run_hits,
            sync_run_misses: after.sync_run_misses - before.sync_run_misses,
            store_coalesced: after.store_coalesced - before.store_coalesced,
            per_worker_events,
            lint_rejections: results
                .iter()
                .filter(|r| matches!(r, Err(DesyncError::LintRejected(_))))
                .count(),
            lint_cache_hits: after.lint_hits - before.lint_hits,
            failures: results.iter().filter(|r| r.is_err()).count(),
            queue_high_water: counters.high_water,
            shed: counters.shed,
            panics_contained: counters.panics_contained,
            cancelled: counters.cancelled,
            deadline_exceeded: counters.deadline_exceeded,
            tenants: counters.tenants,
            lanes: counters.lanes,
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

/// Everything [`DesyncService::run_batch`] produces.
pub type ServiceOutcome = BatchOutcome<DesyncDesign>;

/// Everything [`DesyncService::run_sweep`] produces.
pub type SweepOutcome = BatchOutcome<EquivalenceReport>;

/// Everything [`DesyncService::run_campaign`] produces.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per submitted campaign point, in request order.
    /// Coalesced points hold clones of their group's shared report.
    pub results: Vec<Result<MultiSeedReport, DesyncError>>,
    /// The campaign statistics ([`BatchReport::per_worker_events`] counts
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
    /// Engine stage-cache hits during the batch.
    pub cache_hits: usize,
    /// Engine stage-cache misses during the batch.
    pub cache_misses: usize,
    /// Artifacts of every kind evicted during the batch.
    pub evictions: usize,
    /// Resident store weight after the batch.
    pub resident_weight: usize,
    /// Simulations that reused an already compiled model instead of
    /// recompiling topology (compiled-model store hits during the batch).
    pub compile_reuses: usize,
    /// Timed stages served by re-binding matched delays from a cached
    /// margin-independent sizing analysis (sizing store hits).
    pub rebinds: usize,
    /// Sync reference runs served from the store during the batch.
    pub sync_run_hits: usize,
    /// Sync reference runs that had to simulate (one per distinct sync
    /// side when the store starts cold).
    pub sync_run_misses: usize,
    /// Artifact computations that coalesced onto another worker's
    /// in-flight computation at the store (the exactly-once guarantee
    /// under parallel scheduling).
    pub store_coalesced: usize,
    /// Word-level events actually committed by each worker's simulations,
    /// indexed by worker (all zero for a design batch). The total is
    /// scheduling-independent; the split shows the load balance.
    pub per_worker_events: Vec<usize>,
    /// Requests rejected at admission by the static pre-flight lint
    /// (their result slot holds [`DesyncError::LintRejected`] with the
    /// witness-bearing report; counted inside `failures` too).
    pub lint_rejections: usize,
    /// Lint pre-flight reports served from the engine's store instead of
    /// re-analyzed (repeat submissions of an already-linted netlist).
    pub lint_cache_hits: usize,
    /// Requests whose result is an error.
    pub failures: usize,
    /// Highest pending depth the submission queue reached. With the
    /// pause-stage-resume wrappers this equals `unique` (the whole batch
    /// is staged before execution starts), deterministically.
    pub queue_high_water: usize,
    /// Requests shed with [`DesyncError::QueueFull`] (always zero for the
    /// synchronous wrappers, which run an unbounded queue).
    pub shed: usize,
    /// Worker panics contained into per-request
    /// [`DesyncError::StagePanicked`] results (counted inside `failures`).
    pub panics_contained: usize,
    /// Requests resolved [`DesyncError::Cancelled`].
    pub cancelled: usize,
    /// Requests resolved [`DesyncError::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Per-tenant scheduling counters, in first-submission order. One
    /// entry ([`TenantId::DEFAULT`](crate::TenantId::DEFAULT)) for an
    /// untagged batch.
    pub tenants: Vec<TenantCounters>,
    /// Per-lane scheduling counters, highest priority first.
    pub lanes: Vec<LaneCounters>,
}

impl BatchReport {
    /// Events committed across all workers.
    pub fn events_simulated(&self) -> usize {
        self.per_worker_events.iter().sum()
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
        writeln!(
            f,
            "  store: {} hit(s) / {} miss(es), {} eviction(s), {} weight resident; {} failure(s)",
            self.cache_hits, self.cache_misses, self.evictions, self.resident_weight, self.failures
        )?;
        writeln!(
            f,
            "  reuse: {} compiled-model reuse(s), {} sizing rebind(s), \
             sync runs {} hit(s) / {} miss(es), {} in-flight coalesced",
            self.compile_reuses,
            self.rebinds,
            self.sync_run_hits,
            self.sync_run_misses,
            self.store_coalesced,
        )?;
        writeln!(
            f,
            "  events per worker: {:?} ({} total); {} failure(s)",
            self.per_worker_events,
            self.events_simulated(),
            self.failures
        )?;
        writeln!(
            f,
            "  lint: {} rejection(s) at admission, {} report(s) served from cache",
            self.lint_rejections, self.lint_cache_hits
        )?;
        write!(
            f,
            "  queue: high water {}, {} shed, {} panic(s) contained, {} cancelled, {} past deadline",
            self.queue_high_water,
            self.shed,
            self.panics_contained,
            self.cancelled,
            self.deadline_exceeded
        )?;
        for t in &self.tenants {
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
        if self.lanes.iter().any(|l| l.submitted > 0) {
            write!(f, "\n  lanes:")?;
            for (i, l) in self.lanes.iter().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                write!(f, "{sep}{} {}/{}", l.priority, l.dispatched, l.submitted)?;
            }
            let aged: usize = self.lanes.iter().map(|l| l.aged_promotions).sum();
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
            let fresh =
                crate::Desynchronizer::new(request.netlist, request.library, request.options)
                    .run()
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
        assert_eq!(outcome.report.cache_misses, 4);
        assert_eq!(outcome.report.cache_hits, 0);
        let first = outcome.results[0].as_ref().unwrap();
        for result in &outcome.results[1..] {
            assert_eq!(result.as_ref().unwrap(), first);
        }
        // A second batch over the same request is served from the store.
        let outcome = service.run_batch(&requests[..2]);
        assert_eq!(outcome.report.cache_hits, 4);
        assert_eq!(outcome.report.cache_misses, 0);
        // The pre-flight lint of a clean design is cached alongside the
        // stages (counted separately, so the stage numbers above hold).
        assert_eq!(outcome.report.lint_cache_hits, 1);
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
        // pre-flight catches FL001 before any stage would have reported
        // NoRegisters.
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
        assert_eq!(outcome.report.cache_misses, 0);
        assert_eq!(outcome.report.cache_hits, 0);
        // Resubmitting serves the cached lint report instead of re-linting.
        let outcome = service.run_batch(&requests[..1]);
        assert_eq!(outcome.report.lint_rejections, 1);
        assert_eq!(outcome.report.lint_cache_hits, 1);
        assert_eq!(outcome.report.cache_misses, 0);
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
        assert_eq!(outcome.report.cache_misses, 0);
        assert_eq!(outcome.report.sync_run_misses, 0);
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
        assert_eq!(outcome.report.sync_run_misses, 1);
        assert_eq!(outcome.report.sync_run_hits, 5);
        assert_eq!(outcome.report.compile_reuses, 5);
        assert_eq!(outcome.report.rebinds, 1);
        assert!(outcome.report.events_simulated() > 0);
        assert_eq!(
            outcome.report.per_worker_events.len(),
            outcome.report.workers
        );
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
        assert_eq!(outcome.report.sync_run_misses, 1);
        assert_eq!(outcome.report.sync_run_hits, 2);
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
}
