//! Fairness property suite for the multi-tenant scheduling layer: deficit
//! round-robin interleaving, strict priority lanes, anti-starvation aging,
//! per-tenant quota shedding — and the determinism contract that the
//! dispatch log and every counter are bit-identical across worker counts
//! and across the order clients happen to wait on their tickets.
//!
//! All scheduling assertions stage their whole batch under
//! [`ServiceQueue::pause`] first, so the dispatch log is a pure function
//! of (submission order, tags, quantum, aging bound) — the property the
//! suite pins.

use desync_core::{
    AdmissionPolicy, DesyncEngine, DesyncError, DesyncOptions, DesyncService, DispatchRecord,
    Priority, QueueConfig, QueueCounters, QueueRequest, ServiceQueue, ServiceRequest, SubmitMeta,
    SubmitOptions, TenantId,
};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use std::sync::Arc;
use std::time::Duration;

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

fn tagged(tenant: u32, priority: Priority) -> SubmitOptions {
    SubmitOptions::new().with_meta(
        SubmitMeta::new()
            .with_tenant(TenantId::new(tenant))
            .with_priority(priority),
    )
}

const WAIT: Duration = Duration::from_secs(120);

/// (tenant, priority, aged) per dispatch — the schedule's shape.
fn shape(log: &[DispatchRecord]) -> Vec<(u32, Priority, bool)> {
    log.iter()
        .map(|r| (r.tenant.id(), r.priority, r.aged))
        .collect()
}

#[test]
fn drr_interleaves_a_tenant_burst_within_one_quantum() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1).with_quantum(2).without_aging(),
    );
    let library = CellLibrary::generic_90nm();
    let netlist = pipeline3("drr_burst");

    // Worst case for the small tenant: the burster's 10 requests are all
    // staged ahead of it.
    queue.pause();
    let mut tickets = Vec::new();
    for _ in 0..10 {
        tickets.push(queue.submit(
            request(&engine, &netlist, &library),
            tagged(1, Priority::Normal),
        ));
    }
    tickets.push(queue.submit(
        request(&engine, &netlist, &library),
        tagged(2, Priority::Normal),
    ));
    queue.resume();
    for ticket in tickets {
        ticket.wait_timeout(WAIT).expect("resolves").expect("ok");
    }

    let log = queue.dispatch_log();
    assert_eq!(log.len(), 11);
    // Tenant 2 is served after exactly one quantum of the burster, not
    // after the whole burst.
    let order: Vec<u32> = log.iter().map(|r| r.tenant.id()).collect();
    assert_eq!(order[..4], [1, 1, 2, 1], "one quantum, then the newcomer");
    assert!(order[3..].iter().all(|&t| t == 1));
    let newcomer = &log[2];
    assert_eq!(newcomer.wait_ticks, 2, "waited one quantum, no more");
    assert!(!newcomer.aged, "DRR served it; aging never fired");
}

#[test]
fn drr_alternates_a_sustained_mix_at_quantum_one() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1).with_quantum(1).without_aging(),
    );
    let library = CellLibrary::generic_90nm();
    let netlist = pipeline3("drr_mix");

    // Sustained 2:1 arrival mix: A A B A A B A A B.
    queue.pause();
    let arrivals: [u32; 9] = [1, 1, 2, 1, 1, 2, 1, 1, 2];
    let tickets: Vec<_> = arrivals
        .iter()
        .map(|&tenant| {
            queue.submit(
                request(&engine, &netlist, &library),
                tagged(tenant, Priority::Normal),
            )
        })
        .collect();
    queue.resume();
    for ticket in tickets {
        ticket.wait_timeout(WAIT).expect("resolves").expect("ok");
    }

    // Quantum 1 round-robins the two tenants while both have backlog,
    // then drains the remainder of the bigger one.
    let order: Vec<u32> = queue.dispatch_log().iter().map(|r| r.tenant.id()).collect();
    assert_eq!(order, [1, 2, 1, 2, 1, 2, 1, 1, 1]);
}

#[test]
fn strict_priority_lanes_dispatch_high_before_low() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1).with_quantum(1).without_aging(),
    );
    let library = CellLibrary::generic_90nm();
    let netlist = pipeline3("lanes");

    // Low-priority backlog staged first; high arrivals still dispatch
    // first (lanes preempt dispatch order, never running work).
    queue.pause();
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(queue.submit(
            request(&engine, &netlist, &library),
            tagged(1, Priority::Low),
        ));
    }
    for _ in 0..2 {
        tickets.push(queue.submit(
            request(&engine, &netlist, &library),
            tagged(2, Priority::High),
        ));
    }
    queue.resume();
    for ticket in tickets {
        ticket.wait_timeout(WAIT).expect("resolves").expect("ok");
    }

    assert_eq!(
        shape(&queue.dispatch_log()),
        vec![
            (2, Priority::High, false),
            (2, Priority::High, false),
            (1, Priority::Low, false),
            (1, Priority::Low, false),
            (1, Priority::Low, false),
        ]
    );
    let counters = queue.counters();
    assert_eq!(counters.lanes.len(), 3);
    assert_eq!(counters.lanes[0].priority, Priority::High);
    assert_eq!(counters.lanes[0].dispatched, 2);
    assert_eq!(counters.lanes[2].dispatched, 3);
}

#[test]
fn aging_promotes_a_starving_low_priority_request() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1)
            .with_quantum(1)
            .with_aging_bound(2),
    );
    let library = CellLibrary::generic_90nm();
    let netlist = pipeline3("aging");

    // One low-priority request buried under a high-priority burst: after
    // `aging_bound` dispatch ticks it jumps the lanes.
    queue.pause();
    let mut tickets = vec![queue.submit(
        request(&engine, &netlist, &library),
        tagged(1, Priority::Low),
    )];
    for _ in 0..5 {
        tickets.push(queue.submit(
            request(&engine, &netlist, &library),
            tagged(2, Priority::High),
        ));
    }
    queue.resume();
    for ticket in tickets {
        ticket.wait_timeout(WAIT).expect("resolves").expect("ok");
    }

    assert_eq!(
        shape(&queue.dispatch_log()),
        vec![
            (2, Priority::High, false),
            (2, Priority::High, false),
            (1, Priority::Low, true), // aged promotion at tick 2
            (2, Priority::High, false),
            (2, Priority::High, false),
            (2, Priority::High, false),
        ]
    );
    let counters = queue.counters();
    let low_lane = counters
        .lanes
        .iter()
        .find(|l| l.priority == Priority::Low)
        .unwrap();
    assert_eq!(low_lane.aged_promotions, 1);
    assert_eq!(low_lane.max_wait_ticks, 2, "promoted exactly at the bound");
}

#[test]
fn tenant_quota_sheds_only_the_bursting_tenant() {
    let engine = Arc::new(DesyncEngine::with_workers(1));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(1)
            .with_tenant_quota(2)
            .with_admission(AdmissionPolicy::RejectNew),
    );
    let library = CellLibrary::generic_90nm();
    let netlist = pipeline3("quota");

    queue.pause();
    let burst: Vec<_> = (0..4)
        .map(|_| {
            queue.submit(
                request(&engine, &netlist, &library),
                tagged(1, Priority::Normal),
            )
        })
        .collect();
    let trickle: Vec<_> = (0..2)
        .map(|_| {
            queue.submit(
                request(&engine, &netlist, &library),
                tagged(2, Priority::Normal),
            )
        })
        .collect();

    // The burster's overflow sheds at submission with its quota state in
    // the error; the trickle tenant is untouched.
    for shed in &burst[2..] {
        assert!(shed.poll(), "quota shed resolves at submission");
        match shed.try_wait().unwrap().unwrap_err() {
            DesyncError::QueueFull {
                capacity,
                tenant,
                tenant_depth,
                tenant_quota,
                ..
            } => {
                assert_eq!(capacity, None, "global depth is unbounded here");
                assert_eq!(tenant, TenantId::new(1));
                assert_eq!(tenant_depth, 2);
                assert_eq!(tenant_quota, Some(2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    queue.resume();
    for ticket in burst.into_iter().take(2).chain(trickle) {
        ticket.wait_timeout(WAIT).expect("resolves").expect("ok");
    }

    let counters = queue.counters();
    assert_eq!(counters.shed, 2);
    let by_tenant: Vec<(u32, usize, usize)> = counters
        .tenants
        .iter()
        .map(|t| (t.tenant.id(), t.submitted, t.shed))
        .collect();
    assert_eq!(by_tenant, vec![(1, 2, 2), (2, 2, 0)]);
}

/// The mixed workload of the determinism properties: three tenants,
/// three lanes, distinct designs, tenant 1 bursting.
fn mixed_workload() -> Vec<(u32, Priority, Netlist)> {
    let mut work = Vec::new();
    let plan: [(u32, Priority); 12] = [
        (1, Priority::Normal),
        (1, Priority::Normal),
        (2, Priority::High),
        (1, Priority::Low),
        (3, Priority::Normal),
        (1, Priority::Normal),
        (2, Priority::High),
        (1, Priority::Normal),
        (3, Priority::Low),
        (1, Priority::Normal),
        (2, Priority::Normal),
        (1, Priority::Low),
    ];
    for (index, (tenant, priority)) in plan.into_iter().enumerate() {
        work.push((tenant, priority, pipeline3(&format!("mix{index}"))));
    }
    work
}

/// One staged replay of the mixed workload; `wait_order` permutes which
/// ticket the client waits on first.
fn replay_mixed(
    workers: usize,
    wait_order: fn(usize, usize) -> usize,
) -> (Vec<DispatchRecord>, QueueCounters) {
    let engine = Arc::new(DesyncEngine::with_workers(2));
    let queue = ServiceQueue::new(
        Arc::clone(&engine),
        QueueConfig::with_workers(workers)
            .with_quantum(2)
            .with_aging_bound(4),
    );
    let library = CellLibrary::generic_90nm();
    let workload = mixed_workload();

    queue.pause();
    let mut tickets = Vec::new();
    for (tenant, priority, netlist) in &workload {
        tickets.push(queue.submit(
            request(&engine, netlist, &library),
            tagged(*tenant, *priority),
        ));
    }
    queue.resume();
    let total = tickets.len();
    let mut waited = vec![false; total];
    for i in 0..total {
        let pick = wait_order(i, total);
        assert!(!waited[pick], "wait_order must be a permutation");
        waited[pick] = true;
        tickets[pick]
            .wait_timeout(WAIT)
            .expect("resolves")
            .expect("ok");
    }
    (queue.dispatch_log(), queue.counters())
}

#[test]
fn dispatch_is_bit_identical_across_workers_and_wait_orders() {
    let in_order = |i: usize, _n: usize| i;
    let reversed = |i: usize, n: usize| n - 1 - i;
    let strided = |i: usize, n: usize| (i * 5) % n; // 5 ⟂ 12: a permutation

    let baseline = replay_mixed(1, in_order);
    assert_eq!(baseline.0.len(), 12);
    for (workers, order) in [
        (1, reversed as fn(usize, usize) -> usize),
        (2, in_order),
        (2, strided),
        (4, in_order),
        (4, reversed),
    ] {
        let run = replay_mixed(workers, order);
        assert_eq!(
            baseline, run,
            "dispatch log and counters diverged at workers={workers}"
        );
    }
}

#[test]
fn service_reports_are_identical_across_worker_counts() {
    let workload = mixed_workload();
    let library = CellLibrary::generic_90nm();
    let options = DesyncOptions::default();

    let mut baseline: Option<(
        Vec<desync_core::TenantCounters>,
        Vec<desync_core::LaneCounters>,
    )> = None;
    for concurrency in [1usize, 2, 4] {
        let service = DesyncService::new().with_concurrency(concurrency);
        let requests: Vec<ServiceRequest<'_>> = workload
            .iter()
            .map(|(tenant, priority, netlist)| {
                ServiceRequest::new(netlist, &library, options).with_meta(
                    SubmitMeta::new()
                        .with_tenant(TenantId::new(*tenant))
                        .with_priority(*priority),
                )
            })
            .collect();
        let outcome = service.run_batch(&requests);
        assert_eq!(outcome.report.requests, 12);
        assert_eq!(outcome.report.failures, 0);
        let snapshot = (
            outcome.report.queue.tenants.clone(),
            outcome.report.queue.lanes.clone(),
        );
        match &baseline {
            None => baseline = Some(snapshot),
            Some(first) => assert_eq!(
                first, &snapshot,
                "per-tenant/per-lane report blocks diverged at concurrency {concurrency}"
            ),
        }
    }
    let (tenants, lanes) = baseline.unwrap();
    assert_eq!(tenants.len(), 3, "three tenants reported");
    assert_eq!(lanes.len(), 3, "three lanes reported");
    assert_eq!(tenants[0].tenant, TenantId::new(1));
    assert_eq!(tenants[0].submitted, 7, "the burster's seven requests");
}
