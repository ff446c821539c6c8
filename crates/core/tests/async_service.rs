//! Lifecycle tests of the async submission front-end: tickets,
//! cancellation, deadlines, backpressure and drop-drain — all without
//! fault injection (the `failpoints` suite covers injected faults).
//!
//! Every blocking assertion here is bounded: tickets are waited with
//! [`TicketHandle::wait_timeout`] wherever a hang is conceivable, and CI
//! additionally runs this whole binary under a hard `timeout`, so a
//! deadlock in the cancellation/deadline machinery fails loudly instead of
//! wedging the suite.

use desync_core::{
    AdmissionPolicy, BatchReport, CampaignPointOutcome, CampaignRequest, CancelToken, DesyncDesign,
    DesyncEngine, DesyncError, DesyncFlow, DesyncOptions, DesyncService, EquivalenceReport,
    Interrupt, MultiSeedReport, QueueCampaignRequest, QueueConfig, QueueRequest, QueueSweepRequest,
    ServiceQueue, ServiceRequest, SubmitOptions, SweepRequest, TicketHandle,
};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A three-stage synchronous pipeline (the service-test workhorse).
fn pipeline3(name: &str) -> Netlist {
    let mut n = Netlist::new(name);
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

fn request(engine: &DesyncEngine, netlist: &Netlist, library: &CellLibrary) -> QueueRequest {
    QueueRequest::new(
        engine.intern_netlist(netlist),
        engine.intern_library(library),
        DesyncOptions::default(),
    )
}

const WAIT: Duration = Duration::from_secs(60);

#[test]
fn tickets_poll_try_wait_and_wait() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("poll");
    let library = CellLibrary::generic_90nm();

    let ticket = queue.submit(request(&engine, &netlist, &library), SubmitOptions::new());
    let cloned = ticket
        .wait_timeout(WAIT)
        .expect("request completes")
        .expect("request succeeds");
    assert!(ticket.poll(), "resolved ticket must poll ready");
    let via_try = ticket
        .try_wait()
        .expect("resolved ticket serves try_wait")
        .expect("same success");
    assert_eq!(via_try, cloned);
    let moved = ticket.wait().expect("wait moves the result out");
    assert_eq!(moved, cloned);

    // The design equals a fresh detached flow: the queue adds scheduling,
    // never content.
    let fresh = DesyncFlow::new(&netlist, &library, DesyncOptions::default())
        .unwrap()
        .design()
        .unwrap();
    assert_eq!(moved, fresh);

    let counters = queue.counters();
    assert_eq!(counters.submitted, 1);
    assert_eq!(counters.completed, 1);
    assert_eq!(counters.shed, 0);
    assert_eq!(counters.panics_contained, 0);
}

#[test]
fn cancelled_while_queued_resolves_without_engine_work() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("precancel");
    let library = CellLibrary::generic_90nm();

    // Pause so the cancellation deterministically beats pickup.
    queue.pause();
    let ticket = queue.submit(request(&engine, &netlist, &library), SubmitOptions::new());
    ticket.cancel();
    queue.resume();

    let outcome = ticket.wait_timeout(WAIT).expect("ticket resolves");
    assert_eq!(outcome.unwrap_err(), DesyncError::Cancelled);
    assert_eq!(queue.counters().cancelled, 1);
    assert_eq!(queue.counters().completed, 0);
    // The request never touched the engine: no artifact traffic at all.
    assert_eq!(engine.report().total_misses(), 0);
}

#[test]
fn expired_deadline_resolves_deadline_exceeded() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("deadline");
    let library = CellLibrary::generic_90nm();

    // A zero deadline is already expired at pickup; pausing first makes
    // that deterministic rather than a race against the worker.
    queue.pause();
    let ticket = queue.submit(
        request(&engine, &netlist, &library),
        SubmitOptions::new().with_deadline(Duration::ZERO),
    );
    queue.resume();

    let outcome = ticket.wait_timeout(WAIT).expect("ticket resolves");
    assert_eq!(outcome.unwrap_err(), DesyncError::DeadlineExceeded);
    assert_eq!(queue.counters().deadline_exceeded, 1);
}

#[test]
fn interrupts_fire_at_stage_boundaries_of_a_flow() {
    let netlist = pipeline3("boundary");
    let library = CellLibrary::generic_90nm();

    // Cancellation wins at the first stage boundary.
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default()).unwrap();
    flow.set_interrupt(Interrupt::new(Some(cancel), None));
    assert_eq!(flow.clustered().unwrap_err(), DesyncError::Cancelled);
    assert_eq!(flow.design().unwrap_err(), DesyncError::Cancelled);

    // An elapsed deadline likewise.
    let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default()).unwrap();
    flow.set_interrupt(Interrupt::new(
        None,
        Some(Instant::now() - Duration::from_secs(1)),
    ));
    assert_eq!(flow.timed().unwrap_err(), DesyncError::DeadlineExceeded);

    // A cancel token fired *after* a stage completed does not un-compute
    // it, but stops the next boundary.
    let cancel = CancelToken::new();
    let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default()).unwrap();
    flow.set_interrupt(Interrupt::new(Some(cancel.clone()), None));
    assert!(flow.clustered().is_ok());
    cancel.cancel();
    assert!(flow.clustered().is_ok(), "cached artifact stays served");
    assert_eq!(flow.latched().unwrap_err(), DesyncError::Cancelled);
}

#[test]
fn reject_new_admission_sheds_past_the_bound() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1)
            .with_depth(2)
            .with_admission(AdmissionPolicy::RejectNew),
    );
    let library = CellLibrary::generic_90nm();
    let netlists: Vec<Netlist> = (0..4).map(|i| pipeline3(&format!("shed{i}"))).collect();

    // Paused queue: the first two submissions fill the bound, the rest
    // shed deterministically.
    queue.pause();
    let tickets: Vec<_> = netlists
        .iter()
        .map(|n| queue.submit(request(&engine, n, &library), SubmitOptions::new()))
        .collect();
    // Shed tickets resolve immediately, even while the queue is paused,
    // and the error carries the observed depth and the shedding tenant's
    // pending state.
    for shed in &tickets[2..] {
        assert!(shed.poll(), "shed ticket must resolve at submission");
        match shed.try_wait().unwrap().unwrap_err() {
            DesyncError::QueueFull {
                depth,
                capacity,
                tenant,
                tenant_depth,
                tenant_quota,
            } => {
                assert_eq!(depth, 2);
                assert_eq!(capacity, Some(2));
                assert_eq!(tenant, desync_core::TenantId::DEFAULT);
                assert_eq!(tenant_depth, 2);
                assert_eq!(tenant_quota, None);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    let counters = queue.counters();
    assert_eq!(counters.shed, 2);
    assert_eq!(counters.submitted, 2);
    assert_eq!(counters.high_water, 2);
    queue.resume();

    for admitted in tickets.into_iter().take(2) {
        assert!(admitted.wait_timeout(WAIT).expect("resolves").is_ok());
    }
    assert_eq!(queue.counters().completed, 2);
}

#[test]
fn block_submitter_admission_blocks_without_deadlock() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = Arc::new(desync_core::ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1)
            .with_depth(1)
            .with_admission(AdmissionPolicy::BlockSubmitter),
    ));
    let library = CellLibrary::generic_90nm();
    let netlists: Vec<Netlist> = (0..3).map(|i| pipeline3(&format!("block{i}"))).collect();

    // Submit from a separate thread: the bound-1 queue forces the
    // submitter to block while workers drain; everything must complete.
    let submitter = {
        let queue = Arc::clone(&queue);
        let requests: Vec<QueueRequest> = netlists
            .iter()
            .map(|n| request(&engine, n, &library))
            .collect();
        std::thread::spawn(move || {
            requests
                .into_iter()
                .map(|r| queue.submit(r, SubmitOptions::new()))
                .collect::<Vec<_>>()
        })
    };
    let tickets = submitter.join().expect("submitter never deadlocks");
    for ticket in tickets {
        assert!(ticket.wait_timeout(WAIT).expect("resolves").is_ok());
    }
    let counters = queue.counters();
    assert_eq!(counters.completed, 3);
    assert_eq!(counters.shed, 0, "blocking admission never sheds");
}

#[test]
fn dropping_the_queue_cancels_pending_requests() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("dropped");
    let library = CellLibrary::generic_90nm();

    // Paused forever: the requests are pending when the queue drops.
    queue.pause();
    let tickets: Vec<_> = (0..3)
        .map(|_| queue.submit(request(&engine, &netlist, &library), SubmitOptions::new()))
        .collect();
    drop(queue);
    for ticket in tickets {
        assert_eq!(
            ticket
                .wait_timeout(WAIT)
                .expect("drain resolves")
                .unwrap_err(),
            DesyncError::Cancelled
        );
    }
}

#[test]
fn wrapper_reports_carry_deterministic_queue_counters() {
    let n = pipeline3("wrapped");
    let mut other = pipeline3("wrapped");
    other.set_name("other");
    let library = CellLibrary::generic_90nm();
    let service = DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(4);
    let requests = vec![
        ServiceRequest::new(&n, &library, DesyncOptions::default()),
        ServiceRequest::new(&n, &library, DesyncOptions::default()),
        ServiceRequest::new(&other, &library, DesyncOptions::default()),
        ServiceRequest::new(&n, &library, DesyncOptions::default().with_margin(0.2)),
    ];
    let outcome = service.run_batch(&requests);
    assert_eq!(outcome.report.unique, 3);
    // Pause-stage-resume pins the high-water mark at the group count,
    // independent of worker scheduling.
    assert_eq!(outcome.report.queue_high_water, 3);
    assert_eq!(outcome.report.shed, 0);
    assert_eq!(outcome.report.panics_contained, 0);
    assert_eq!(outcome.report.cancelled, 0);
    assert_eq!(outcome.report.deadline_exceeded, 0);
    let text = outcome.report.to_string();
    assert!(text.contains("queue: high water 3"), "{text}");
}

#[test]
fn external_cancel_tokens_are_shared_across_requests() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let library = CellLibrary::generic_90nm();
    let doomed_a = pipeline3("doomed_a");
    let doomed_b = pipeline3("doomed_b");
    let alive = pipeline3("alive");

    // One connection token covering two requests; a third is independent.
    let connection = CancelToken::new();
    queue.pause();
    let ta = queue.submit(
        request(&engine, &doomed_a, &library),
        SubmitOptions::new().with_cancel(connection.clone()),
    );
    let tb = queue.submit(
        request(&engine, &doomed_b, &library),
        SubmitOptions::new().with_cancel(connection.clone()),
    );
    let tc = queue.submit(request(&engine, &alive, &library), SubmitOptions::new());
    connection.cancel();
    queue.resume();

    assert_eq!(
        ta.wait_timeout(WAIT).unwrap().unwrap_err(),
        DesyncError::Cancelled
    );
    assert_eq!(
        tb.wait_timeout(WAIT).unwrap().unwrap_err(),
        DesyncError::Cancelled
    );
    assert!(tc.wait_timeout(WAIT).unwrap().is_ok());
    assert_eq!(queue.counters().cancelled, 2);
    assert_eq!(queue.counters().completed, 1);
}

#[test]
fn shutdown_wakes_waiters_already_blocked_in_wait() {
    // Regression: dropping the queue with queued-but-unstarted requests
    // must resolve every outstanding ticket with a typed cancellation —
    // including tickets other threads are *already blocked on* in `wait`
    // and `wait_timeout` at shutdown time. A hang here wedges clients
    // forever.
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("shutdown_waiters");
    let library = CellLibrary::generic_90nm();

    queue.pause();
    let blocking_wait = queue.submit(request(&engine, &netlist, &library), SubmitOptions::new());
    let blocking_timeout = queue.submit(request(&engine, &netlist, &library), SubmitOptions::new());
    let waiter = std::thread::spawn(move || blocking_wait.wait());
    let timeout_waiter = std::thread::spawn(move || blocking_timeout.wait_timeout(WAIT));
    // Give both threads time to actually park on the ticket condvars.
    std::thread::sleep(Duration::from_millis(50));

    drop(queue); // still paused: both requests are queued, never started

    assert_eq!(
        waiter.join().expect("waiter thread exits"),
        Err(DesyncError::Cancelled)
    );
    assert_eq!(
        timeout_waiter.join().expect("timeout waiter exits"),
        Some(Err(DesyncError::Cancelled))
    );
}

#[test]
fn shutdown_unblocks_a_submitter_parked_on_admission() {
    // Regression: a submitter blocked by `BlockSubmitter` backpressure at
    // shutdown must get its ticket resolved `Cancelled` — not enqueue into
    // a drained queue and hang the ticket forever. Explicit `shutdown` is
    // the only way to reach this: the parked submitter holds a queue
    // handle, so drop-based shutdown could never run while it is parked.
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = Arc::new(desync_core::ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1)
            .with_depth(1)
            .with_admission(AdmissionPolicy::BlockSubmitter),
    ));
    let library = CellLibrary::generic_90nm();
    let first = pipeline3("parked_first");
    let second = pipeline3("parked_second");

    // Paused and at depth: the second submission parks its thread.
    queue.pause();
    let queued = queue.submit(request(&engine, &first, &library), SubmitOptions::new());
    let parked = {
        let queue = Arc::clone(&queue);
        let request = request(&engine, &second, &library);
        std::thread::spawn(move || {
            let ticket = queue.submit(request, SubmitOptions::new());
            ticket.wait_timeout(WAIT)
        })
    };
    std::thread::sleep(Duration::from_millis(50));

    queue.shutdown();

    assert_eq!(
        parked.join().expect("parked submitter exits"),
        Some(Err(DesyncError::Cancelled)),
        "admission must resolve the parked submission, not enqueue it"
    );
    assert_eq!(
        queued.wait_timeout(WAIT).expect("drain resolves"),
        Err(DesyncError::Cancelled)
    );
    // Shutdown is sticky: later submissions resolve Cancelled at admission.
    let late = queue.submit(request(&engine, &first, &library), SubmitOptions::new());
    assert_eq!(
        late.wait_timeout(WAIT).expect("resolves"),
        Err(DesyncError::Cancelled)
    );
    drop(queue); // idempotent: drop re-runs shutdown, then joins workers
}

#[test]
fn cancel_while_queued_is_identical_across_policies_and_workers() {
    // A token fired while the request is still queued must behave the
    // same under both admission policies and any worker count: the victim
    // resolves `Cancelled` before reaching the engine (no in-flight
    // leader is ever registered for it), survivors complete, and the
    // counters are bit-identical.
    let library = CellLibrary::generic_90nm();
    let survivor_a = pipeline3("cpx_a");
    let survivor_b = pipeline3("cpx_b");
    let victim = pipeline3("cpx_victim");

    // Baseline store traffic: the two survivors alone.
    let baseline_misses = {
        let engine = Arc::new(DesyncEngine::with_workers(1));
        let queue =
            desync_core::ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
        for n in [&survivor_a, &survivor_b] {
            queue
                .submit(request(&engine, n, &library), SubmitOptions::new())
                .wait_timeout(WAIT)
                .expect("resolves")
                .expect("ok");
        }
        engine.report().total_misses()
    };

    for admission in [AdmissionPolicy::RejectNew, AdmissionPolicy::BlockSubmitter] {
        let mut counter_runs = Vec::new();
        for workers in [1usize, 2] {
            let engine = Arc::new(DesyncEngine::with_workers(2));
            let queue = desync_core::ServiceQueue::new(
                Arc::clone(&engine),
                QueueConfig::with_workers(workers)
                    .with_depth(8) // roomy: policies differ only when full
                    .with_admission(admission),
            );
            queue.pause();
            let ta = queue.submit(
                request(&engine, &survivor_a, &library),
                SubmitOptions::new(),
            );
            let doomed = queue.submit(request(&engine, &victim, &library), SubmitOptions::new());
            let tb = queue.submit(
                request(&engine, &survivor_b, &library),
                SubmitOptions::new(),
            );
            doomed.cancel();
            queue.resume();

            assert_eq!(
                doomed.wait_timeout(WAIT).expect("resolves").unwrap_err(),
                DesyncError::Cancelled
            );
            assert!(ta.wait_timeout(WAIT).expect("resolves").is_ok());
            assert!(tb.wait_timeout(WAIT).expect("resolves").is_ok());
            assert_eq!(
                engine.report().total_misses(),
                baseline_misses,
                "the cancelled request must never register an in-flight leader \
                 ({admission:?}, workers={workers})"
            );
            assert_eq!(engine.inflight_artifacts(), 0);
            counter_runs.push(queue.counters());
        }
        let [one, two] = counter_runs.try_into().expect("two runs");
        assert_eq!(
            one, two,
            "queue counters must match across worker counts ({admission:?})"
        );
        assert_eq!(one.cancelled, 1);
        assert_eq!(one.completed, 2);
        assert_eq!(one.shed, 0);
    }
}

#[test]
fn a_deadline_past_the_instant_range_means_no_deadline() {
    // Regression: `Instant + Duration::MAX` overflowed and panicked on the
    // submitting thread.
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("unbounded_deadline");
    let library = CellLibrary::generic_90nm();
    let ticket = queue.submit(
        request(&engine, &netlist, &library),
        SubmitOptions::new().with_deadline(Duration::MAX),
    );
    assert!(ticket.wait_timeout(WAIT).expect("resolves").is_ok());
    assert_eq!(queue.counters().deadline_exceeded, 0);
}

#[test]
fn a_timeout_past_the_instant_range_waits_until_resolution() {
    // Regression: `wait_timeout(Duration::MAX)` overflowed and panicked.
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
    let netlist = pipeline3("unbounded_wait");
    let library = CellLibrary::generic_90nm();
    let ticket = queue.submit(request(&engine, &netlist, &library), SubmitOptions::new());
    let outcome = ticket
        .wait_timeout(Duration::MAX)
        .expect("waits until resolved");
    assert!(outcome.is_ok());
}

/// The three request kinds of the service, for the table test below.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Design,
    Sweep,
    Campaign,
}

/// One resolved request of any kind.
#[derive(Debug, Clone, PartialEq)]
enum Output {
    Design(Box<DesyncDesign>),
    Sweep(EquivalenceReport),
    Campaign(MultiSeedReport),
}

/// The inputs every row shares: the library and both stimuli of the
/// pipeline's one data input.
struct Inputs {
    library: CellLibrary,
    scalar: VectorSource,
    packed: PackedVectorSource,
}

impl Inputs {
    fn new() -> Self {
        let a = pipeline3("inputs").find_net("a").unwrap();
        Self {
            library: CellLibrary::generic_90nm(),
            scalar: VectorSource::pseudo_random(vec![a], 3),
            packed: PackedVectorSource::pseudo_random(vec![a], &[3, 5, 8]),
        }
    }
}

impl Kind {
    /// Runs `points` as one batch through the kind's `DesyncService` entry.
    fn run_service(
        self,
        service: &DesyncService,
        inputs: &Inputs,
        points: &[(&Netlist, DesyncOptions)],
    ) -> (Vec<Result<Output, DesyncError>>, BatchReport) {
        let lib = &inputs.library;
        match self {
            Kind::Design => {
                let requests: Vec<_> = points
                    .iter()
                    .map(|&(n, o)| ServiceRequest::new(n, lib, o))
                    .collect();
                let outcome = service.run_batch(&requests);
                let results = outcome.results.into_iter();
                (
                    results
                        .map(|r| r.map(|d| Output::Design(Box::new(d))))
                        .collect(),
                    outcome.report,
                )
            }
            Kind::Sweep => {
                let requests: Vec<_> = points
                    .iter()
                    .map(|&(n, o)| SweepRequest::new(n, lib, o, &inputs.scalar, 8))
                    .collect();
                let outcome = service.run_sweep(&requests);
                let results = outcome.results.into_iter();
                (
                    results.map(|r| r.map(Output::Sweep)).collect(),
                    outcome.report,
                )
            }
            Kind::Campaign => {
                let requests: Vec<_> = points
                    .iter()
                    .map(|&(n, o)| CampaignRequest::new(n, lib, o, &inputs.packed, 8))
                    .collect();
                let outcome = service.run_campaign(&requests);
                let results = outcome.results.into_iter();
                (
                    results.map(|r| r.map(Output::Campaign)).collect(),
                    outcome.report,
                )
            }
        }
    }

    /// Submits one point through the kind's `ServiceQueue` entry.
    fn submit(
        self,
        queue: &ServiceQueue,
        inputs: &Inputs,
        point: (&Netlist, DesyncOptions),
        submit: SubmitOptions,
    ) -> Ticket {
        let engine = queue.engine();
        let netlist = engine.intern_netlist(point.0);
        let library = engine.intern_library(&inputs.library);
        let options = point.1;
        match self {
            Kind::Design => {
                let request = QueueRequest::new(netlist, library, options);
                Ticket::Design(queue.submit(request, submit))
            }
            Kind::Sweep => {
                let stimulus = inputs.scalar.clone();
                let request = QueueSweepRequest::new(netlist, library, options, stimulus, 8);
                Ticket::Sweep(queue.submit_sweep(request, submit))
            }
            Kind::Campaign => {
                let stimulus = inputs.packed.clone();
                let request = QueueCampaignRequest::new(netlist, library, options, stimulus, 8);
                Ticket::Campaign(queue.submit_campaign(request, submit))
            }
        }
    }
}

/// A ticket of any request kind.
enum Ticket {
    Design(TicketHandle<DesyncDesign>),
    Sweep(TicketHandle<EquivalenceReport>),
    Campaign(TicketHandle<CampaignPointOutcome>),
}

impl Ticket {
    fn wait(self) -> Result<Output, DesyncError> {
        match self {
            Ticket::Design(t) => {
                let design = t.wait_timeout(WAIT).expect("resolves");
                design.map(|d| Output::Design(Box::new(d)))
            }
            Ticket::Sweep(t) => t.wait_timeout(WAIT).expect("resolves").map(Output::Sweep),
            Ticket::Campaign(t) => {
                let outcome = t.wait_timeout(WAIT).expect("resolves");
                outcome.map(|point| Output::Campaign(point.report))
            }
        }
    }
}

/// `pipeline3` with a second driver on `q0`: registers exist, so only the
/// lint pre-flight's NL001 stands between it and the construction stages.
fn multi_driven(name: &str) -> Netlist {
    let mut n = pipeline3(name);
    let a = n.find_net("a").unwrap();
    let q0 = n.find_net("q0").unwrap();
    n.add_gate("dup", CellKind::Buf, &[a], q0).unwrap();
    n
}

#[test]
fn every_request_kind_shares_admission_isolation_coalescing_and_interrupts() {
    let inputs = Inputs::new();
    let good = pipeline3("kinds_good");
    let bad = multi_driven("kinds_bad");
    let default = DesyncOptions::default();
    let invalid = default.with_margin(-1.0);
    for kind in [Kind::Design, Kind::Sweep, Kind::Campaign] {
        // --- DesyncService::run_* ---------------------------------------
        // Lint rejection at admission: no stage, sync run or simulation.
        let service = DesyncService::with_engine(DesyncEngine::with_workers(1));
        let (results, report) = kind.run_service(&service, &inputs, &[(&bad, default)]);
        assert!(
            matches!(results[0], Err(DesyncError::LintRejected(_))),
            "{kind:?}: {:?}",
            results[0]
        );
        assert_eq!(report.lint_rejections, 1, "{kind:?}");
        assert_eq!(report.cache_misses, 0, "{kind:?}");
        assert_eq!(report.sync_run_misses, 0, "{kind:?}");
        assert_eq!(report.events_simulated(), 0, "{kind:?}");

        // Invalid options stay in their slot; duplicates coalesce onto one
        // computation.
        let service = DesyncService::with_engine(DesyncEngine::with_workers(2));
        let points = [(&good, default), (&good, invalid), (&good, default)];
        let (results, report) = kind.run_service(&service, &inputs, &points);
        assert!(results[0].is_ok(), "{kind:?}: {:?}", results[0]);
        assert!(
            matches!(results[1], Err(DesyncError::InvalidOptions(_))),
            "{kind:?}: {:?}",
            results[1]
        );
        assert_eq!(results[2], results[0], "{kind:?}");
        assert_eq!((report.unique, report.coalesced), (2, 1), "{kind:?}");
        assert_eq!(report.failures, 1, "{kind:?}");
        assert_eq!(report.cache_misses, 4, "{kind:?}: one computation");

        // --- ServiceQueue::submit* ---------------------------------------
        let engine = Arc::new(DesyncEngine::with_workers(1));
        let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(1));
        let rejected = kind.submit(&queue, &inputs, (&bad, default), SubmitOptions::new());
        assert!(
            matches!(rejected.wait(), Err(DesyncError::LintRejected(_))),
            "{kind:?}"
        );
        assert_eq!(engine.report().total_misses(), 0, "{kind:?}");
        assert_eq!(engine.report().sync_run_misses, 0, "{kind:?}");

        // Staged under pause: an invalid point, two duplicates, a
        // pre-cancelled token and an expired deadline.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        queue.pause();
        let tickets = [
            kind.submit(&queue, &inputs, (&good, invalid), SubmitOptions::new()),
            kind.submit(&queue, &inputs, (&good, default), SubmitOptions::new()),
            kind.submit(&queue, &inputs, (&good, default), SubmitOptions::new()),
            kind.submit(
                &queue,
                &inputs,
                (&good, default),
                SubmitOptions::new().with_cancel(cancelled),
            ),
            kind.submit(
                &queue,
                &inputs,
                (&good, default),
                SubmitOptions::new().with_deadline(Duration::ZERO),
            ),
        ];
        queue.resume();
        let [invalid_slot, first, duplicate, cancel_slot, deadline_slot] =
            tickets.map(Ticket::wait);
        assert!(
            matches!(invalid_slot, Err(DesyncError::InvalidOptions(_))),
            "{kind:?}"
        );
        assert!(first.is_ok(), "{kind:?}: {first:?}");
        assert_eq!(duplicate, first, "{kind:?}");
        assert_eq!(cancel_slot, Err(DesyncError::Cancelled), "{kind:?}");
        assert_eq!(
            deadline_slot,
            Err(DesyncError::DeadlineExceeded),
            "{kind:?}"
        );
        // The duplicate was served from the store: one computation of each
        // construction stage (and of the sync reference, when verifying).
        let stored = engine.report();
        assert_eq!(stored.total_misses(), 4, "{kind:?}");
        assert_eq!(stored.total_hits(), 4, "{kind:?}");
        let counters = queue.counters();
        assert_eq!(counters.cancelled, 1, "{kind:?}");
        assert_eq!(counters.deadline_exceeded, 1, "{kind:?}");
    }
}
