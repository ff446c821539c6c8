//! The asynchronous submission front-end: tagged submissions, priority
//! lanes, per-tenant fair scheduling, tickets, cancellation, deadlines and
//! per-request fault containment.
//!
//! [`ServiceQueue`] is the execution core that
//! [`DesyncService`](crate::DesyncService) layers its synchronous
//! `run_batch`/`run_sweep`/`run_campaign` wrappers over. Callers **submit**
//! work — a design request ([`QueueRequest`]), a verification sweep point
//! ([`QueueSweepRequest`]) or a packed equivalence campaign point
//! ([`QueueCampaignRequest`]) — and immediately receive a [`TicketHandle`]
//! they can poll, block on, or abandon; a fixed set of worker threads
//! drains the queue and resolves each ticket with a `Result`. Every kind
//! is admitted through one submission path and runs through one executor,
//! which opens the engine flow; only the final step (`design`, `verified`
//! or `verify_packed`) depends on the kind, and each step meets the flow's
//! own lint gate before its first stage.
//!
//! # Lifecycle of a request: tag → lane → tenant-DRR → worker
//!
//! 1. **Tagging.** Every submission carries a [`SubmitMeta`] (on
//!    [`SubmitOptions`]): a [`TenantId`] naming who submitted it and a
//!    [`Priority`] naming how urgent it is. Untagged submissions default
//!    to [`TenantId::DEFAULT`] at [`Priority::Normal`] — a single-tenant,
//!    single-lane queue schedules exactly like the historical FIFO.
//! 2. **Admission.** Under the state lock the queue checks the global
//!    depth bound *and* the submitting tenant's quota
//!    ([`QueueConfig::tenant_quota`]). If either is exceeded, the
//!    configured [`AdmissionPolicy`] decides: `RejectNew` resolves the
//!    ticket right away with [`DesyncError::QueueFull`] (carrying the
//!    observed depth, capacity and the shedding tenant's quota state;
//!    counted in [`QueueCounters::shed`] and the tenant's
//!    [`TenantCounters::shed`]); `BlockSubmitter` parks the submitting
//!    thread until a slot frees. Because the quota is per tenant, both
//!    policies act on the *bursting* tenant while other tenants' traffic
//!    keeps flowing. A submission that arrives after shutdown began
//!    resolves [`DesyncError::Cancelled`] instead of enqueueing — it can
//!    never be picked up, so it must never park a waiter.
//! 3. **Lane selection.** Admitted requests land in the FIFO of their
//!    (tenant, lane) pair. Lanes are *strict*: a worker always dispatches
//!    from the highest non-empty lane. Priority preempts **dispatch
//!    order only** — running work is never interrupted.
//! 4. **Tenant DRR.** Within a lane, tenants are served deficit-round-
//!    robin: each tenant in turn dispatches up to
//!    [`QueueConfig::quantum`] requests (every request costs one deficit
//!    unit), then the turn rotates. A 500-request burst from one tenant
//!    therefore interleaves with another tenant's single request at
//!    quantum granularity instead of starving it.
//! 5. **Aging.** Strict lanes could starve low-priority work forever, so
//!    the scheduler keeps a logical clock that ticks once per dispatch.
//!    A request that has waited at least [`QueueConfig::aging_bound`]
//!    ticks is promoted: the globally oldest such request dispatches next,
//!    regardless of lane or DRR turn. This bounds every request's wait to
//!    `aging_bound + high_water` dispatch ticks (once aged, each tick
//!    dispatches the oldest pending submission, of which at most
//!    `high_water` precede it). The clock is logical, not wall-time, so
//!    the schedule stays bit-identical across worker counts and machines.
//! 6. **Pickup.** A worker pops the scheduled request (appending a
//!    [`DispatchRecord`] to the dispatch log), first checking its
//!    [`CancelToken`] and deadline — a request cancelled while queued is
//!    resolved [`DesyncError::Cancelled`] without touching the engine, an
//!    expired one [`DesyncError::DeadlineExceeded`].
//! 7. **Execution.** The worker opens the flow attached to the shared
//!    engine and runs the request kind's step. The step's first stage,
//!    [`DesyncFlow::clustered`], fetches the design's pre-flight lint
//!    report (from the store when another request already linted it) and
//!    rejects a design whose report is not clean with
//!    [`DesyncError::LintRejected`] before any stage computes. The
//!    request's [`Interrupt`] travels inside the flow and is
//!    re-checked at **every stage boundary** (cooperative cancellation:
//!    a cancelled request stops at the next stage edge, never mid-stage).
//! 8. **Containment.** The whole execution runs under `catch_unwind`: a
//!    panicking stage resolves *that request's* ticket with
//!    [`DesyncError::StagePanicked`] (carrying the stage name from the
//!    sticky `stage_trace`) and the worker survives. The store's
//!    in-flight registry is unwound by its own drop guard, so followers of
//!    a failed leader retry instead of hanging — no wedged keys.
//! 9. **Resolution.** The ticket resolves exactly once (first write wins);
//!    waiters wake via condvar.
//!
//! Dropping the queue cancels every still-pending request in submission
//! order (their tickets resolve [`DesyncError::Cancelled`]), wakes any
//! submitter parked by `BlockSubmitter` (whose request also resolves
//! [`DesyncError::Cancelled`] rather than enqueueing into a queue nobody
//! will drain), lets in-progress work finish, and joins the workers — no
//! outstanding [`TicketHandle`] ever hangs.
//!
//! # Determinism
//!
//! The queue adds *scheduling*, never *content*: results are pure
//! functions of the request, so any interleaving of workers produces
//! bit-identical tickets. The scheduler itself is deterministic too: pops
//! are serialized under the state mutex and the next dispatch is a pure
//! function of (submission order, tags, quantum, aging bound) — never of
//! wall-clock time or worker identity. Given the same submission order the
//! dispatch log, per-tenant counters and per-lane counters are
//! bit-identical across 1, 2 or N workers. The sync wrappers additionally
//! need deterministic *admission*; they use [`ServiceQueue::pause`] /
//! [`ServiceQueue::resume`] to stage a whole batch before execution
//! starts, which pins [`QueueCounters::high_water`] (and, under a depth
//! bound or tenant quota, the shed pattern) independent of worker timing.

use crate::engine::DesyncEngine;
use crate::error::DesyncError;
use crate::failpoints;
use crate::flow::DesyncDesign;
use crate::options::DesyncOptions;
use crate::pipeline::DesyncFlow;
use crate::verify::{EquivalenceReport, MultiSeedReport};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Records which pipeline stage the current thread is executing, so panic
/// containment can name the stage that blew up.
///
/// The marker is **sticky**: a stage sets it on entry and nothing clears
/// it on exit — deliberately, because a panic unwinds through `Drop` impls
/// (which would wipe a guard-based marker before `catch_unwind` gets to
/// read it). The queue worker clears the marker before each request and
/// takes it after a catch, so the last stage entered before the panic is
/// exactly what the error reports.
pub(crate) mod stage_trace {
    use std::cell::Cell;

    thread_local! {
        static CURRENT: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// Marks `stage` as executing on this thread (sticky; see module doc).
    pub(crate) fn enter(stage: &'static str) {
        CURRENT.with(|c| c.set(Some(stage)));
    }

    /// Clears the marker (queue workers call this before each request).
    pub(crate) fn clear() {
        CURRENT.with(|c| c.set(None));
    }

    /// Takes the last stage entered on this thread, clearing the marker.
    pub(crate) fn take() -> Option<&'static str> {
        CURRENT.with(|c| c.take())
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Identifies the tenant (client, user, session) behind a submission, for
/// fair scheduling and per-tenant accounting. Plain numeric identity —
/// the queue attaches no meaning beyond equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(u32);

impl TenantId {
    /// The tenant every untagged submission is accounted to.
    pub const DEFAULT: TenantId = TenantId(0);

    /// A tenant with the given numeric identity.
    pub const fn new(id: u32) -> Self {
        Self(id)
    }

    /// The numeric identity.
    pub const fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The strict-priority lane of a submission. Higher lanes always dispatch
/// before lower ones (dispatch-order preemption only — running work is
/// never interrupted); within a lane, tenants share deficit-round-robin.
/// Anti-starvation aging ([`QueueConfig::aging_bound`]) bounds how long a
/// low lane can be bypassed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: bulk sweeps, prefetching, speculative points.
    Low,
    /// The default lane; untagged submissions land here.
    #[default]
    Normal,
    /// Interactive work: dispatched before everything else.
    High,
}

impl Priority {
    /// Number of lanes.
    pub const LANES: usize = 3;

    /// The lane index (0 = [`Priority::Low`] … 2 = [`Priority::High`]).
    pub const fn lane(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// The priority of a lane index (inverse of [`Priority::lane`]).
    pub const fn from_lane(lane: usize) -> Priority {
        match lane {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        }
    }

    /// The lowercase lane name.
    pub const fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The scheduling tag of one submission: which tenant it belongs to and
/// which priority lane it dispatches from. Defaults reproduce the
/// historical untagged behaviour ([`TenantId::DEFAULT`],
/// [`Priority::Normal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SubmitMeta {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The strict-priority lane.
    pub priority: Priority,
}

impl SubmitMeta {
    /// The default tag: [`TenantId::DEFAULT`] at [`Priority::Normal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the tag with a tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Returns the tag with a priority lane.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A shared flag requesting cooperative cancellation of one request.
///
/// Cloning shares the flag. Cancellation is *cooperative*: the request
/// observes the token at pickup and at every [`DesyncFlow`]
/// stage boundary, then resolves its ticket [`DesyncError::Cancelled`] —
/// an already-running stage finishes (its artifact may still be published
/// to the store, where it benefits other requests).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// The interrupt condition a request executes under: its cancel token plus
/// an optional absolute deadline. Checked at request pickup and at every
/// stage boundary of [`DesyncFlow`].
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Interrupt {
    /// An interrupt that never fires (flows default to this).
    pub fn none() -> Self {
        Self::default()
    }

    /// An interrupt observing `cancel` and, optionally, an absolute
    /// `deadline`.
    pub fn new(cancel: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        Self { cancel, deadline }
    }

    /// Checks both conditions: cancellation wins over the deadline when
    /// both have fired.
    ///
    /// # Errors
    ///
    /// [`DesyncError::Cancelled`] / [`DesyncError::DeadlineExceeded`].
    pub fn check(&self) -> Result<(), DesyncError> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(DesyncError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(DesyncError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// The write-once result slot behind a [`TicketHandle`].
#[derive(Debug)]
struct TicketCell<T> {
    slot: Mutex<Option<Result<T, DesyncError>>>,
    ready: Condvar,
}

impl<T> TicketCell<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Resolves the ticket; the first write wins (a request cancelled in
    /// the same instant its worker finishes keeps exactly one outcome).
    fn resolve(&self, result: Result<T, DesyncError>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
        }
    }
}

/// A per-request completion handle returned by [`ServiceQueue::submit`],
/// [`ServiceQueue::submit_sweep`] and [`ServiceQueue::submit_campaign`].
///
/// The handle is also the request's cancellation surface:
/// [`TicketHandle::cancel`] fires the request's [`CancelToken`].
#[derive(Debug)]
pub struct TicketHandle<T> {
    cell: Arc<TicketCell<T>>,
    cancel: CancelToken,
}

impl<T: Clone> TicketHandle<T> {
    /// Non-blocking completion check: `Some(result)` once resolved (the
    /// result is cloned out; [`TicketHandle::wait`] moves it instead).
    pub fn try_wait(&self) -> Option<Result<T, DesyncError>> {
        self.cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Blocks until resolution or `timeout`, whichever first. A timeout
    /// past the representable range of [`Instant`] waits until the ticket
    /// resolves.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, DesyncError>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = self
            .cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if slot.is_some() {
                return slot.clone();
            }
            slot = match deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    let waited = self.cell.ready.wait_timeout(slot, remaining);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                None => {
                    let waited = self.cell.ready.wait(slot);
                    waited.unwrap_or_else(PoisonError::into_inner)
                }
            };
        }
    }
}

impl<T> TicketHandle<T> {
    /// Whether the request has resolved (without consuming the result).
    pub fn poll(&self) -> bool {
        self.cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Blocks until the request resolves and moves the result out.
    ///
    /// Resolution is guaranteed as long as the owning [`ServiceQueue`] is
    /// eventually dropped: every submitted request is executed, shed,
    /// drain-cancelled, or (when it arrives during shutdown) resolved
    /// [`DesyncError::Cancelled`] at admission.
    pub fn wait(self) -> Result<T, DesyncError> {
        let mut slot = self
            .cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .cell
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests cooperative cancellation of this request (see
    /// [`CancelToken`]). The ticket still resolves — with
    /// [`DesyncError::Cancelled`] if cancellation won, or with the result
    /// if the computation finished first.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The request's cancel token (clone to cancel from elsewhere).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// An owned design request for [`ServiceQueue::submit`].
///
/// Unlike the borrowing [`ServiceRequest`](crate::ServiceRequest), queue
/// requests own their inputs (`Arc`-shared — intern through
/// [`DesyncEngine::intern_netlist`] to avoid deep clones), because the
/// queue's workers outlive any caller stack frame.
#[derive(Debug, Clone)]
pub struct QueueRequest {
    /// The synchronous netlist to desynchronize.
    pub netlist: Arc<Netlist>,
    /// The cell library to size against.
    pub library: Arc<CellLibrary>,
    /// The flow options.
    pub options: DesyncOptions,
}

impl QueueRequest {
    /// Bundles one owned request.
    pub fn new(netlist: Arc<Netlist>, library: Arc<CellLibrary>, options: DesyncOptions) -> Self {
        Self {
            netlist,
            library,
            options,
        }
    }
}

/// An owned verification point: a design request plus the stimulus `S`
/// and capture count its flow-equivalence check runs under. A
/// [`QueueSweepRequest`] ([`ServiceQueue::submit_sweep`]) carries a scalar
/// [`VectorSource`]; a [`QueueCampaignRequest`]
/// ([`ServiceQueue::submit_campaign`]) carries an interleaved
/// [`PackedVectorSource`] of up to 64 stimulus lanes, verified in a single
/// packed co-simulation.
#[derive(Debug, Clone)]
pub struct QueueVerifyRequest<S> {
    /// The synchronous netlist to desynchronize and verify against.
    pub netlist: Arc<Netlist>,
    /// The cell library to size and simulate against.
    pub library: Arc<CellLibrary>,
    /// The flow options of this point (protocol, margin, …).
    pub options: DesyncOptions,
    /// The input stimulus of the co-simulation.
    pub stimulus: S,
    /// Number of captures compared per register (per lane).
    pub cycles: usize,
}

impl<S> QueueVerifyRequest<S> {
    /// Bundles one owned verification point.
    pub fn new(
        netlist: Arc<Netlist>,
        library: Arc<CellLibrary>,
        options: DesyncOptions,
        stimulus: S,
        cycles: usize,
    ) -> Self {
        Self {
            netlist,
            library,
            options,
            stimulus,
            cycles,
        }
    }
}

/// An owned verification sweep point for [`ServiceQueue::submit_sweep`].
pub type QueueSweepRequest = QueueVerifyRequest<VectorSource>;

/// An owned randomized-stimulus equivalence campaign point for
/// [`ServiceQueue::submit_campaign`].
pub type QueueCampaignRequest = QueueVerifyRequest<PackedVectorSource>;

/// One request kind of the queue: the design point it desynchronizes plus
/// the kind-specific step the executor runs once the flow is admitted.
pub(crate) trait Work: Send + 'static {
    /// What the request's ticket resolves with.
    type Output: Send + 'static;

    /// The netlist, library and options of the request's flow.
    fn design_point(&self) -> (&Netlist, &CellLibrary, DesyncOptions);

    /// Runs the kind's step on the admitted flow, returning the output
    /// plus the word-level events its simulations committed (cached sync
    /// references count zero — nothing was simulated).
    fn step(&self, flow: &mut DesyncFlow<'_>) -> Result<(Self::Output, usize), DesyncError>;
}

impl Work for QueueRequest {
    type Output = DesyncDesign;

    fn design_point(&self) -> (&Netlist, &CellLibrary, DesyncOptions) {
        (&self.netlist, &self.library, self.options)
    }

    fn step(&self, flow: &mut DesyncFlow<'_>) -> Result<(DesyncDesign, usize), DesyncError> {
        Ok((flow.design()?, 0))
    }
}

impl Work for QueueSweepRequest {
    type Output = EquivalenceReport;

    fn design_point(&self) -> (&Netlist, &CellLibrary, DesyncOptions) {
        (&self.netlist, &self.library, self.options)
    }

    fn step(&self, flow: &mut DesyncFlow<'_>) -> Result<(EquivalenceReport, usize), DesyncError> {
        flow.set_verification(self.stimulus.clone(), self.cycles);
        let report = flow.verified()?.clone();
        let mut simulated = report.async_run.committed_events;
        if flow.sync_run_cache_hits() == 0 {
            simulated += report.sync_run.committed_events;
        }
        Ok((report, simulated))
    }
}

impl Work for QueueCampaignRequest {
    type Output = CampaignPointOutcome;

    fn design_point(&self) -> (&Netlist, &CellLibrary, DesyncOptions) {
        (&self.netlist, &self.library, self.options)
    }

    /// The packed kernel commits one word event per net change regardless
    /// of lane count; the scalar-equivalent lane events ride along in the
    /// outcome.
    fn step(
        &self,
        flow: &mut DesyncFlow<'_>,
    ) -> Result<(CampaignPointOutcome, usize), DesyncError> {
        let report = flow.verify_packed(&self.stimulus, self.cycles)?;
        let mut word_events = report.async_word_events;
        let mut lane_events = report.async_lane_events;
        if flow.sync_run_cache_hits() == 0 {
            word_events += report.sync_word_events;
            lane_events += report.sync_lane_events;
        }
        let outcome = CampaignPointOutcome {
            report,
            lane_events,
        };
        Ok((outcome, word_events))
    }
}

/// The resolution of one campaign point: the per-lane verdicts plus the
/// scalar-equivalent lane events its simulations committed (the word-level
/// committed events are booked into [`ServiceQueue::events_simulated`],
/// same as scalar sweep points — one word commit carries all lanes).
#[derive(Debug, Clone)]
pub struct CampaignPointOutcome {
    /// The merged per-lane equivalence report.
    pub report: MultiSeedReport,
    /// Scalar-equivalent lane events committed for this point (cached sync
    /// references count zero, exactly like the scalar sweep accounting).
    pub lane_events: usize,
}

/// Per-request submission knobs.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Relative deadline: the request must *complete* within this budget
    /// (measured from submission) or resolve
    /// [`DesyncError::DeadlineExceeded`] at the next checkpoint.
    pub deadline: Option<Duration>,
    /// An external cancel token (e.g. tied to a client connection). When
    /// `None` the queue creates one; either way the returned
    /// [`TicketHandle`] can cancel.
    pub cancel: Option<CancelToken>,
    /// The scheduling tag: tenant + priority lane. Defaults to the
    /// single-tenant normal lane, reproducing untagged FIFO behaviour.
    pub meta: SubmitMeta,
}

impl SubmitOptions {
    /// Defaults: no deadline, fresh cancel token, default tag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the options with a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the options observing an external cancel token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Returns the options with a full scheduling tag.
    pub fn with_meta(mut self, meta: SubmitMeta) -> Self {
        self.meta = meta;
        self
    }
}

/// What happens when a submission meets a full queue or an exhausted
/// tenant quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Shed the new request: its ticket resolves
    /// [`DesyncError::QueueFull`] immediately and the shedding tenant's
    /// [`TenantCounters::shed`] (and so [`QueueCounters::shed`])
    /// increments. The service stays responsive; callers retry with
    /// backoff.
    #[default]
    RejectNew,
    /// Park the submitting thread until a slot frees — backpressure
    /// propagates to the producer that caused the overload (a tenant at
    /// its quota blocks only its own submitter; other tenants keep
    /// flowing). No deadlock: workers drain independently of submitters
    /// (unless the queue is paused and never resumed, which is a caller
    /// bug), and shutdown wakes every parked submitter, resolving its
    /// ticket [`DesyncError::Cancelled`].
    BlockSubmitter,
}

/// The default anti-starvation aging bound, in dispatch ticks.
pub const DEFAULT_AGING_BOUND: usize = 64;

/// Configuration of a [`ServiceQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Worker threads draining the queue (clamped to at least one).
    pub workers: usize,
    /// Maximum pending (queued, not yet picked up) requests; `None` =
    /// unbounded.
    pub depth: Option<usize>,
    /// Full-queue behaviour (meaningful with a depth bound or a tenant
    /// quota).
    pub admission: AdmissionPolicy,
    /// The deficit-round-robin quantum: how many requests one tenant may
    /// dispatch consecutively within a lane before the turn rotates
    /// (clamped to at least one). Every request costs one deficit unit.
    pub quantum: usize,
    /// Anti-starvation bound, in dispatch ticks: a request that has
    /// waited this many dispatches is promoted past lanes and DRR order.
    /// `None` disables aging (strict lanes can then starve low-priority
    /// work indefinitely). The worst-case wait with aging enabled is
    /// `aging_bound + high_water` ticks.
    pub aging_bound: Option<usize>,
    /// Per-tenant pending-depth quota; `None` = unquotaed. A tenant at
    /// its quota is shed or blocked (per [`AdmissionPolicy`]) without
    /// affecting other tenants' admission.
    pub tenant_quota: Option<usize>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            depth: None,
            admission: AdmissionPolicy::RejectNew,
            quantum: 1,
            aging_bound: Some(DEFAULT_AGING_BOUND),
            tenant_quota: None,
        }
    }
}

impl QueueConfig {
    /// `workers` threads, unbounded depth, reject-new admission,
    /// quantum 1, default aging bound, no tenant quota.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Returns the config with a depth bound.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Returns the config with an admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Returns the config with a DRR quantum.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        self.quantum = quantum.max(1);
        self
    }

    /// Returns the config with an anti-starvation aging bound.
    pub fn with_aging_bound(mut self, bound: usize) -> Self {
        self.aging_bound = Some(bound);
        self
    }

    /// Returns the config with aging disabled (strict lanes may starve).
    pub fn without_aging(mut self) -> Self {
        self.aging_bound = None;
        self
    }

    /// Returns the config with a per-tenant pending-depth quota.
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }
}

/// Per-tenant traffic and scheduling counters, snapshot via
/// [`ServiceQueue::counters`]. Tenants appear in first-submission order,
/// which is deterministic given the submission order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// The tenant these counters describe.
    pub tenant: TenantId,
    /// Requests accepted into the queue (sheds not included).
    pub submitted: usize,
    /// Requests popped by the scheduler (includes requests later resolved
    /// cancelled/expired at pickup).
    pub dispatched: usize,
    /// Requests whose execution ran to completion.
    pub completed: usize,
    /// Requests shed at admission (full queue or exhausted quota).
    pub shed: usize,
    /// Requests resolved [`DesyncError::Cancelled`].
    pub cancelled: usize,
    /// Requests resolved [`DesyncError::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Worker panics contained into [`DesyncError::StagePanicked`].
    pub panics_contained: usize,
    /// Requests of this tenant pending at snapshot time.
    pub pending: usize,
    /// Highest pending depth this tenant ever reached.
    pub high_water: usize,
    /// Sum of queue waits over all dispatches, in dispatch ticks.
    pub wait_ticks: u64,
    /// Longest queue wait of any dispatch, in dispatch ticks.
    pub max_wait_ticks: u64,
    /// Residual DRR deficit per lane (index = [`Priority::lane`]) at
    /// snapshot time.
    pub deficit: [u64; Priority::LANES],
}

/// Per-lane traffic counters, snapshot via [`ServiceQueue::counters`].
/// Lanes are reported highest priority first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneCounters {
    /// The lane these counters describe.
    pub priority: Priority,
    /// Requests accepted into this lane.
    pub submitted: usize,
    /// Requests dispatched from this lane.
    pub dispatched: usize,
    /// Dispatches that bypassed lane/DRR order via the aging bound.
    pub aged_promotions: usize,
    /// Longest queue wait of any dispatch from this lane, in ticks.
    pub max_wait_ticks: u64,
}

/// One entry of the dispatch log: which submission the scheduler served
/// at each dispatch tick. Pure function of (submission order, tags,
/// quantum, aging bound) — bit-identical across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The submission's admission sequence number (0-based, in submission
    /// order, counting only admitted requests).
    pub seq: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The lane it dispatched from.
    pub priority: Priority,
    /// Dispatch ticks spent queued (dispatch tick − enqueue tick).
    pub wait_ticks: u64,
    /// Whether the aging bound promoted this dispatch past the strict
    /// lane/DRR order.
    pub aged: bool,
}

/// A snapshot of a [`ServiceQueue`]'s traffic counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueCounters {
    /// Requests accepted into the queue (sheds not included).
    pub submitted: usize,
    /// Requests whose execution ran to completion (successfully or with a
    /// typed per-request error other than cancellation/deadline).
    pub completed: usize,
    /// Requests shed by [`AdmissionPolicy::RejectNew`] on a full queue or
    /// an exhausted tenant quota.
    pub shed: usize,
    /// Requests resolved [`DesyncError::Cancelled`] (while queued, at a
    /// stage boundary, or drained on queue drop).
    pub cancelled: usize,
    /// Requests resolved [`DesyncError::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Worker panics contained into [`DesyncError::StagePanicked`]
    /// resolutions (the batch and the workers survived every one).
    pub panics_contained: usize,
    /// Requests pending (queued, not picked up) at snapshot time.
    pub depth: usize,
    /// Highest pending depth ever observed.
    pub high_water: usize,
    /// Per-tenant counters, in first-submission order.
    pub tenants: Vec<TenantCounters>,
    /// Per-lane counters, highest priority first.
    pub lanes: Vec<LaneCounters>,
}

/// One queued unit of work.
///
/// Counter discipline: every path updates the queue counters **before**
/// resolving the ticket, so a caller that observed a resolution (wait,
/// try_wait, poll) also observes the matching counter state — the sync
/// wrappers' reports depend on this.
struct Job {
    /// Executes the request, updates the counters, resolves its ticket.
    run: Box<dyn FnOnce(&QueueShared) + Send>,
    /// Resolves the ticket with an error without executing (pre-pickup
    /// interrupt, drain-cancel, panic containment). Does not touch
    /// counters — callers bump the appropriate one first.
    fail: Box<dyn FnOnce(DesyncError) + Send>,
    /// Checked at pickup, before any engine work.
    interrupt: Interrupt,
    /// The submitting tenant (per-tenant counter attribution).
    tenant: TenantId,
    /// The lane it was submitted to.
    priority: Priority,
}

/// A job waiting in one (tenant, lane) FIFO, stamped with its admission
/// sequence number and the logical enqueue tick.
struct PendingJob {
    job: Job,
    seq: u64,
    enqueue_tick: u64,
}

/// Per-tenant scheduler state: one FIFO per lane plus the tenant's counter
/// row, which also holds the scheduling state it reports (pending depth and
/// the per-lane DRR deficit).
struct TenantSched {
    queues: [VecDeque<PendingJob>; Priority::LANES],
    counters: TenantCounters,
}

/// Per-lane scheduler state: the DRR ring of tenants with pending work in
/// this lane (invariant: a tenant index is in `active` iff its queue for
/// this lane is non-empty), plus the lane's counter row.
struct LaneSched {
    active: VecDeque<usize>,
    counters: LaneCounters,
}

/// The deterministic dispatcher: strict priority lanes over per-tenant
/// deficit-round-robin, with logical-clock aging. Lives entirely inside
/// the queue's state mutex; every decision is a pure function of the
/// submission order and tags, never of wall-clock time or worker
/// identity.
struct Scheduler {
    quantum: u64,
    aging_bound: Option<u64>,
    tenants: Vec<TenantSched>,
    index: HashMap<u32, usize>,
    lanes: [LaneSched; Priority::LANES],
    pending_total: usize,
    next_seq: u64,
    tick: u64,
}

impl Scheduler {
    fn new(quantum: usize, aging_bound: Option<usize>) -> Self {
        Self {
            quantum: quantum.max(1) as u64,
            aging_bound: aging_bound.map(|b| b as u64),
            tenants: Vec::new(),
            index: HashMap::new(),
            lanes: std::array::from_fn(|lane| LaneSched {
                active: VecDeque::new(),
                counters: LaneCounters {
                    priority: Priority::from_lane(lane),
                    submitted: 0,
                    dispatched: 0,
                    aged_promotions: 0,
                    max_wait_ticks: 0,
                },
            }),
            pending_total: 0,
            next_seq: 0,
            tick: 0,
        }
    }

    /// The stable index of `id`, registering the tenant on first sight
    /// (indices are first-submission order — deterministic given the
    /// submission order).
    fn tenant_index(&mut self, id: TenantId) -> usize {
        if let Some(&i) = self.index.get(&id.id()) {
            return i;
        }
        self.tenants.push(TenantSched {
            queues: std::array::from_fn(|_| VecDeque::new()),
            counters: TenantCounters {
                tenant: id,
                ..TenantCounters::default()
            },
        });
        self.index.insert(id.id(), self.tenants.len() - 1);
        self.tenants.len() - 1
    }

    /// Admits `job` into its (tenant, lane) FIFO.
    fn enqueue(&mut self, job: Job) {
        let lane = job.priority.lane();
        let ti = self.tenant_index(job.tenant);
        let seq = self.next_seq;
        self.next_seq += 1;
        let enqueue_tick = self.tick;
        let tenant = &mut self.tenants[ti];
        if tenant.queues[lane].is_empty() {
            self.lanes[lane].active.push_back(ti);
        }
        tenant.queues[lane].push_back(PendingJob {
            job,
            seq,
            enqueue_tick,
        });
        let counters = &mut tenant.counters;
        counters.pending += 1;
        counters.high_water = counters.high_water.max(counters.pending);
        counters.submitted += 1;
        self.lanes[lane].counters.submitted += 1;
        self.pending_total += 1;
    }

    /// The (lane, tenant index, seq) strict-priority DRR would serve next.
    fn peek_normal(&self) -> Option<(usize, usize, u64)> {
        for lane in (0..Priority::LANES).rev() {
            if let Some(&ti) = self.lanes[lane].active.front() {
                let seq = self.tenants[ti].queues[lane]
                    .front()
                    .expect("active ring invariant: non-empty lane queue")
                    .seq;
                return Some((lane, ti, seq));
            }
        }
        None
    }

    /// The globally oldest pending job: (lane, tenant index, seq,
    /// enqueue tick). Oldest-by-seq also means oldest-by-enqueue-tick
    /// (ticks are non-decreasing in seq), which the aging bound relies on.
    fn peek_oldest(&self) -> Option<(usize, usize, u64, u64)> {
        let mut best: Option<(usize, usize, u64, u64)> = None;
        for (ti, tenant) in self.tenants.iter().enumerate() {
            for lane in 0..Priority::LANES {
                if let Some(front) = tenant.queues[lane].front() {
                    if best.is_none_or(|(_, _, seq, _)| front.seq < seq) {
                        best = Some((lane, ti, front.seq, front.enqueue_tick));
                    }
                }
            }
        }
        best
    }

    /// Pops the next scheduled job, advancing the dispatch clock. The
    /// decision order: aging promotion of the globally oldest request if
    /// it has waited `aging_bound` ticks and is not the normal candidate
    /// anyway; otherwise the highest non-empty lane's DRR front.
    fn pop(&mut self) -> Option<(Job, DispatchRecord)> {
        let (mut lane, mut ti, normal_seq) = self.peek_normal()?;
        let mut aged = false;
        if let Some(bound) = self.aging_bound {
            if let Some((olane, oti, oseq, otick)) = self.peek_oldest() {
                if oseq != normal_seq && self.tick.saturating_sub(otick) >= bound {
                    aged = true;
                    lane = olane;
                    ti = oti;
                }
            }
        }

        let pending = if aged {
            // Out-of-band promotion: serve the queue front directly and
            // repair the active ring if the queue drained.
            let tenant = &mut self.tenants[ti];
            let pending = tenant.queues[lane]
                .pop_front()
                .expect("aged candidate has a queue front");
            if tenant.queues[lane].is_empty() {
                tenant.counters.deficit[lane] = 0;
                if let Some(pos) = self.lanes[lane].active.iter().position(|&x| x == ti) {
                    self.lanes[lane].active.remove(pos);
                }
            }
            self.lanes[lane].counters.aged_promotions += 1;
            pending
        } else {
            let tenant = &mut self.tenants[ti];
            let deficit = &mut tenant.counters.deficit[lane];
            if *deficit == 0 {
                *deficit = self.quantum;
            }
            let pending = tenant.queues[lane]
                .pop_front()
                .expect("active ring invariant: non-empty lane queue");
            *deficit -= 1;
            if tenant.queues[lane].is_empty() {
                *deficit = 0;
                self.lanes[lane].active.pop_front();
            } else if *deficit == 0 {
                // Quantum exhausted: rotate the tenant to the ring's back.
                let front = self.lanes[lane]
                    .active
                    .pop_front()
                    .expect("active ring invariant: ring front exists");
                self.lanes[lane].active.push_back(front);
            }
            pending
        };

        let wait = self.tick - pending.enqueue_tick;
        let tenant = &mut self.tenants[ti].counters;
        tenant.pending -= 1;
        tenant.dispatched += 1;
        tenant.wait_ticks += wait;
        tenant.max_wait_ticks = tenant.max_wait_ticks.max(wait);
        let lane_counters = &mut self.lanes[lane].counters;
        lane_counters.dispatched += 1;
        lane_counters.max_wait_ticks = lane_counters.max_wait_ticks.max(wait);
        self.pending_total -= 1;
        self.tick += 1;
        let record = DispatchRecord {
            seq: pending.seq,
            tenant: tenant.tenant,
            priority: pending.job.priority,
            wait_ticks: wait,
            aged,
        };
        Some((pending.job, record))
    }

    /// Removes every pending job, in submission order, for drain-cancel
    /// at shutdown. Resets the rings and deficits; counters survive.
    fn drain(&mut self) -> Vec<Job> {
        let mut all: Vec<PendingJob> = Vec::new();
        for tenant in &mut self.tenants {
            for lane in 0..Priority::LANES {
                all.extend(tenant.queues[lane].drain(..));
            }
            tenant.counters.deficit = [0; Priority::LANES];
            tenant.counters.pending = 0;
        }
        for lane in &mut self.lanes {
            lane.active.clear();
        }
        self.pending_total = 0;
        all.sort_by_key(|p| p.seq);
        all.into_iter().map(|p| p.job).collect()
    }
}

/// Everything the workers and the handle share.
struct QueueShared {
    engine: Arc<DesyncEngine>,
    state: Mutex<QueueState>,
    /// Signals workers: work available, unpaused, or shutdown.
    jobs_ready: Condvar,
    /// Signals blocked submitters: a slot freed (or shutdown began).
    space_ready: Condvar,
    depth: Option<usize>,
    admission: AdmissionPolicy,
    tenant_quota: Option<usize>,
    /// Word-level simulation events committed by sweep and campaign points
    /// (design requests simulate nothing).
    events_simulated: AtomicUsize,
}

struct QueueState {
    sched: Scheduler,
    paused: bool,
    shutdown: bool,
    high_water: usize,
    dispatch_log: Vec<DispatchRecord>,
}

impl QueueShared {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bumps one of `tenant`'s counters under the state lock. The tenant
    /// is always registered (it was registered at admission), but a
    /// missing entry is tolerated rather than panicking in a worker.
    fn bump_tenant(&self, tenant: TenantId, bump: impl FnOnce(&mut TenantCounters)) {
        let mut state = self.lock_state();
        if let Some(&i) = state.sched.index.get(&tenant.id()) {
            bump(&mut state.sched.tenants[i].counters);
        }
    }

    /// Books a resolution on `tenant`'s counter row: a cancellation or an
    /// expired deadline by its kind, any other outcome (a result or a typed
    /// per-request error) as completed.
    fn book(&self, tenant: TenantId, error: Option<&DesyncError>) {
        self.bump_tenant(tenant, |t| match error {
            Some(DesyncError::Cancelled) => t.cancelled += 1,
            Some(DesyncError::DeadlineExceeded) => t.deadline_exceeded += 1,
            _ => t.completed += 1,
        });
    }
}

/// The bounded asynchronous submission queue over a shared
/// [`DesyncEngine`]. See the [module documentation](self) for the request
/// lifecycle and determinism notes.
#[derive(Debug)]
pub struct ServiceQueue {
    shared: Arc<QueueShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for QueueShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueShared")
            .field("depth", &self.depth)
            .field("admission", &self.admission)
            .field("tenant_quota", &self.tenant_quota)
            .finish_non_exhaustive()
    }
}

impl ServiceQueue {
    /// Spawns a queue with `config` over `engine`.
    pub fn new(engine: Arc<DesyncEngine>, config: QueueConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(QueueShared {
            engine,
            state: Mutex::new(QueueState {
                sched: Scheduler::new(config.quantum, config.aging_bound),
                paused: false,
                shutdown: false,
                high_water: 0,
                dispatch_log: Vec::new(),
            }),
            jobs_ready: Condvar::new(),
            space_ready: Condvar::new(),
            depth: config.depth,
            admission: config.admission,
            tenant_quota: config.tenant_quota,
            events_simulated: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("desync-request-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning queue worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The engine the workers execute against.
    pub fn engine(&self) -> &Arc<DesyncEngine> {
        &self.shared.engine
    }

    /// Submits a design request; the returned ticket resolves with its
    /// [`DesyncDesign`] or a typed error.
    pub fn submit(
        &self,
        request: QueueRequest,
        options: SubmitOptions,
    ) -> TicketHandle<DesyncDesign> {
        self.submit_work(request, options)
    }

    /// Submits a verification sweep point; the returned ticket resolves
    /// with its [`EquivalenceReport`] or a typed error.
    pub fn submit_sweep(
        &self,
        request: QueueSweepRequest,
        options: SubmitOptions,
    ) -> TicketHandle<EquivalenceReport> {
        self.submit_work(request, options)
    }

    /// Submits a packed equivalence campaign point; the returned ticket
    /// resolves with its [`CampaignPointOutcome`] or a typed error. The
    /// `sim::commit` failpoint fires once per packed commit — per *point*,
    /// not per lane — so tag-targeted fault plans hit a campaign point
    /// exactly as often as the equivalent scalar sweep point.
    pub fn submit_campaign(
        &self,
        request: QueueCampaignRequest,
        options: SubmitOptions,
    ) -> TicketHandle<CampaignPointOutcome> {
        self.submit_work(request, options)
    }

    /// The one submission path of every request kind: admission control
    /// (global depth + tenant quota + shutdown), ticket creation, enqueue
    /// into the scheduler. The enqueued job runs [`execute`] under the
    /// request's failpoint tag (the netlist's structural hash) and books
    /// the simulation events it committed.
    pub(crate) fn submit_work<W: Work>(
        &self,
        request: W,
        options: SubmitOptions,
    ) -> TicketHandle<W::Output> {
        let meta = options.meta;
        let cancel = options.cancel.unwrap_or_default();
        // A deadline past the representable range of `Instant` is no
        // deadline at all.
        let deadline = options.deadline.and_then(|d| Instant::now().checked_add(d));
        let interrupt = Interrupt::new(Some(cancel.clone()), deadline);
        let cell = Arc::new(TicketCell::new());
        let handle = TicketHandle {
            cell: Arc::clone(&cell),
            cancel,
        };
        // The failpoint tag is read only by fault plans; other builds skip
        // hashing the netlist.
        #[cfg(feature = "failpoints")]
        let tag = request.design_point().0.structural_hash();
        #[cfg(not(feature = "failpoints"))]
        let tag = 0;

        let mut state = self.shared.lock_state();
        // Register the tenant first so shed/cancel paths have a counter
        // row even when the request never enqueues.
        let ti = state.sched.tenant_index(meta.tenant);
        loop {
            if state.shutdown {
                // The queue is shutting down: nothing will ever drain this
                // request, so it must resolve now — never enqueue, never
                // keep a submitter parked.
                state.sched.tenants[ti].counters.cancelled += 1;
                drop(state);
                cell.resolve(Err(DesyncError::Cancelled));
                return handle;
            }
            let global_full = self
                .shared
                .depth
                .is_some_and(|bound| state.sched.pending_total >= bound);
            let tenant_full = self
                .shared
                .tenant_quota
                .is_some_and(|quota| state.sched.tenants[ti].counters.pending >= quota);
            if !global_full && !tenant_full {
                break;
            }
            match self.shared.admission {
                AdmissionPolicy::RejectNew => {
                    let error = DesyncError::QueueFull {
                        depth: state.sched.pending_total,
                        capacity: self.shared.depth,
                        tenant: meta.tenant,
                        tenant_depth: state.sched.tenants[ti].counters.pending,
                        tenant_quota: self.shared.tenant_quota,
                    };
                    state.sched.tenants[ti].counters.shed += 1;
                    drop(state);
                    cell.resolve(Err(error));
                    return handle;
                }
                AdmissionPolicy::BlockSubmitter => {
                    state = self
                        .shared
                        .space_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }

        let run_cell = Arc::clone(&cell);
        let run_interrupt = interrupt.clone();
        let fail_cell = Arc::clone(&cell);
        let tenant = meta.tenant;
        state.sched.enqueue(Job {
            run: Box::new(move |shared: &QueueShared| {
                let executed =
                    failpoints::with_tag(tag, || execute(&shared.engine, &request, &run_interrupt));
                // Counters strictly before resolution (see `Job` docs).
                shared.book(tenant, executed.as_ref().err());
                let result = executed.map(|(output, simulated)| {
                    shared
                        .events_simulated
                        .fetch_add(simulated, Ordering::SeqCst);
                    output
                });
                run_cell.resolve(result);
            }),
            fail: Box::new(move |error| fail_cell.resolve(Err(error))),
            interrupt,
            tenant: meta.tenant,
            priority: meta.priority,
        });
        state.high_water = state.high_water.max(state.sched.pending_total);
        drop(state);
        self.shared.jobs_ready.notify_one();
        handle
    }

    /// Pauses pickup: workers finish their current request and park;
    /// submissions keep queueing. With [`ServiceQueue::resume`] this lets
    /// a caller stage a whole batch before execution starts — the sync
    /// wrappers use it to make `high_water` (and shed patterns under a
    /// depth bound or tenant quota) deterministic, and it pins the
    /// dispatch order: with the whole batch staged, the scheduler's
    /// decisions depend only on submission order and tags.
    pub fn pause(&self) {
        self.shared.lock_state().paused = true;
    }

    /// Resumes pickup after [`ServiceQueue::pause`].
    pub fn resume(&self) {
        self.shared.lock_state().paused = false;
        self.shared.jobs_ready.notify_all();
    }

    /// A snapshot of the queue's traffic counters, including the
    /// per-tenant and per-lane blocks. The queue-wide totals are the sums
    /// of the tenant rows, all read under one lock.
    pub fn counters(&self) -> QueueCounters {
        let (depth, high_water, tenants, lanes) = {
            let state = self.shared.lock_state();
            (
                state.sched.pending_total,
                state.high_water,
                state
                    .sched
                    .tenants
                    .iter()
                    .map(|t| t.counters.clone())
                    .collect::<Vec<_>>(),
                state
                    .sched
                    .lanes
                    .iter()
                    .rev()
                    .map(|l| l.counters.clone())
                    .collect(),
            )
        };
        let total = |count: fn(&TenantCounters) -> usize| tenants.iter().map(count).sum();
        QueueCounters {
            submitted: total(|t| t.submitted),
            completed: total(|t| t.completed),
            shed: total(|t| t.shed),
            cancelled: total(|t| t.cancelled),
            deadline_exceeded: total(|t| t.deadline_exceeded),
            panics_contained: total(|t| t.panics_contained),
            depth,
            high_water,
            tenants,
            lanes,
        }
    }

    /// The dispatch log so far: one [`DispatchRecord`] per scheduler pop,
    /// in dispatch order. Deterministic across worker counts for a staged
    /// batch. The log grows for the queue's lifetime (the sync wrappers
    /// use one short-lived queue per batch, so it stays small; a
    /// long-lived server queue may prefer [`ServiceQueue::counters`]).
    pub fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.shared.lock_state().dispatch_log.clone()
    }

    /// Word-level simulation events committed by sweep and campaign points
    /// (one packed word event carries every lane). Scheduling-independent:
    /// the same requests commit the same events on any worker count.
    pub fn events_simulated(&self) -> usize {
        self.shared.events_simulated.load(Ordering::SeqCst)
    }

    /// Shuts the queue down immediately: every queued-but-unstarted
    /// request resolves [`DesyncError::Cancelled`] (in submission order,
    /// so no waiter blocked in [`TicketHandle::wait`] /
    /// [`TicketHandle::wait_timeout`] hangs), submitters parked on
    /// [`AdmissionPolicy::BlockSubmitter`] backpressure wake and get their
    /// tickets resolved `Cancelled` too, and further submissions resolve
    /// `Cancelled` at admission. Requests already picked up by a worker
    /// run to completion. Idempotent; dropping the queue calls it and then
    /// joins the workers.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
            state.paused = false;
            let drained = state.sched.drain();
            for job in &drained {
                if let Some(&i) = state.sched.index.get(&job.tenant.id()) {
                    state.sched.tenants[i].counters.cancelled += 1;
                }
            }
            drained
        };
        // Resolve every still-pending ticket Cancelled, in submission
        // order, so no waiter hangs; then wake parked workers and
        // submitters (a submitter's admission loop observes shutdown and
        // resolves its ticket Cancelled too).
        for job in drained {
            (job.fail)(DesyncError::Cancelled);
        }
        self.shared.jobs_ready.notify_all();
        self.shared.space_ready.notify_all();
    }
}

impl Drop for ServiceQueue {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The one executor of every request kind: opens the flow attached to the
/// shared engine under the request's interrupt and runs the kind's step,
/// whose first stage is the flow's lint gate.
fn execute<W: Work>(
    engine: &DesyncEngine,
    request: &W,
    interrupt: &Interrupt,
) -> Result<(W::Output, usize), DesyncError> {
    let (netlist, library, options) = request.design_point();
    let mut flow = engine.flow(netlist, library, options)?;
    flow.set_interrupt(interrupt.clone());
    request.step(&mut flow)
}

fn worker_loop(shared: &QueueShared) {
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if !state.paused {
                    if let Some((job, record)) = state.sched.pop() {
                        state.dispatch_log.push(record);
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                } else if state.shutdown {
                    return;
                }
                state = shared
                    .jobs_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A slot freed: wake one blocked submitter.
        shared.space_ready.notify_one();

        // Pre-start checkpoint: a request cancelled or expired while
        // queued never touches the engine. Counters before resolution.
        let tenant = job.tenant;
        if let Err(error) = job.interrupt.check() {
            shared.book(tenant, Some(&error));
            (job.fail)(error);
            continue;
        }

        // Containment: the request executes under catch_unwind with a
        // clean stage trace; a panic resolves this ticket StagePanicked
        // (naming the stage) and the worker survives. The job updates the
        // counters and resolves its own ticket on the non-panic paths.
        stage_trace::clear();
        let run = job.run;
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || run(shared)))
        {
            shared.bump_tenant(tenant, |t| t.panics_contained += 1);
            let stage = stage_trace::take().unwrap_or("request");
            (job.fail)(DesyncError::StagePanicked {
                stage,
                message: panic_message(payload.as_ref()),
            });
        }
    }
}
