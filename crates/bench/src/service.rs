//! Service-mode workload: duplicate-heavy request batches through a
//! [`DesyncService`], once over an unbounded store and once over a small
//! bounded store, checking that coalescing, LRU eviction and recomputation
//! all behave — and that the bounded service still returns bit-identical
//! designs.
//!
//! The scenario is the ROADMAP's long-running-service north star: a request
//! stream where identical in-flight requests recur (users iterating on the
//! same design), where the occasional *malformed* design must be turned
//! away at admission by the static lint without costing any stage work,
//! and where the artifact store must not grow without bound.
//! A third, *faulty-traffic* phase drives the asynchronous submission
//! queue directly: a bounded reject-new queue that must shed overload as
//! typed [`DesyncError::QueueFull`] errors, a block-submitter queue that
//! must drain the same traffic without deadlocking, pre-cancelled and
//! deadline-busted requests, and — under `--features failpoints` —
//! injected worker panics whose containment (typed
//! [`DesyncError::StagePanicked`], bystanders bit-identical) is asserted.
//!
//! [`run_service_bench`] reports request/coalescing counts, the engine's
//! hit/eviction counters, lint admission counters, resident weight, the
//! faulty-phase queue counters and the faulty phase's per-tenant
//! scheduling counters (its traffic is tagged with three tenants), and
//! serializes the headline numbers to `BENCH_service.json` (schema
//! `desync-service/4`) via [`ServiceBenchReport::to_json`].

use crate::batch::{mixed_designs, mixed_options};
use desync_core::{
    AdmissionPolicy, ArtifactKind, CancelToken, DesyncDesign, DesyncEngine, DesyncError,
    DesyncService, QueueConfig, QueueRequest, ServiceQueue, ServiceRequest, StoreConfig,
    SubmitMeta, SubmitOptions, TenantCounters, TenantId,
};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times each (design, options) pair appears in one batch.
pub const DUPLICATES_PER_BATCH: usize = 2;

/// How many batches each service phase runs (round two is served from the
/// store where capacity allows).
pub const ROUNDS: usize = 2;

/// The outcome of the service benchmark, see [`run_service_bench`].
#[derive(Debug, Clone)]
pub struct ServiceBenchReport {
    /// Requests submitted across both phases and all rounds.
    pub requests: usize,
    /// Requests coalesced onto another in-flight computation.
    pub coalesced: usize,
    /// Engine stage-cache hits across both phases.
    pub cache_hits: usize,
    /// Engine stage-cache misses across both phases.
    pub cache_misses: usize,
    /// Artifacts evicted (all from the bounded phase).
    pub evictions: usize,
    /// Resident store weight of the bounded engine after its final batch.
    pub resident_weight: usize,
    /// The capacity the bounded phase ran under (derived from the
    /// unbounded phase's resident weight).
    pub capacity: usize,
    /// Resident weight of the unbounded engine after its final batch.
    pub unbounded_resident_weight: usize,
    /// Requests rejected at admission by the static pre-flight lint (the
    /// workload salts every batch with a known-bad multi-driven design).
    pub lint_rejections: usize,
    /// Lint reports served from the store instead of re-analyzed.
    pub lint_cache_hits: usize,
    /// Whether every bounded-phase result equals its unbounded twin —
    /// designs bit-identical where both succeed, and payload-equal
    /// `LintRejected` reports where both are turned away.
    pub bounded_matches_unbounded: bool,
    /// Configured pending-depth bound of the faulty-traffic phase's
    /// reject-new queue.
    pub queue_depth: usize,
    /// Highest pending depth any faulty-phase queue reached.
    pub queue_high_water: usize,
    /// Overload requests shed with [`DesyncError::QueueFull`] by the
    /// reject-new admission policy.
    pub shed: usize,
    /// Faulty-phase requests resolved [`DesyncError::Cancelled`].
    pub cancelled: usize,
    /// Faulty-phase requests resolved [`DesyncError::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Worker panics contained as typed [`DesyncError::StagePanicked`]
    /// errors. Zero unless built with `--features failpoints`.
    pub panics_contained: usize,
    /// Whether the block-submitter queue drained the whole faulty batch
    /// without deadlocking (every ticket resolved, nothing shed).
    pub block_policy_completed: bool,
    /// Whether every *surviving* faulty-phase request returned a design
    /// bit-identical to its fault-free baseline.
    pub faulty_survivors_match: bool,
    /// Per-tenant scheduling counters of the faulty phase's reject-new
    /// queue (its traffic is tagged: tenant 1 interactive, tenant 2 the
    /// poisoned design, tenant 3 the overload burst).
    pub tenants: Vec<TenantCounters>,
    /// Wall time over all phases.
    pub wall: Duration,
}

impl ServiceBenchReport {
    /// Serializes the headline numbers as a small JSON document (the
    /// workspace vendors a stub `serde`, so this is written by hand — the
    /// schema is part of the bench contract and documented in ROADMAP.md).
    pub fn to_json(&self) -> String {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    concat!(
                        "    {{ \"tenant\": {}, \"submitted\": {}, \"dispatched\": {}, ",
                        "\"shed\": {}, \"cancelled\": {}, \"deadline_exceeded\": {}, ",
                        "\"max_wait_ticks\": {} }}"
                    ),
                    t.tenant.id(),
                    t.submitted,
                    t.dispatched,
                    t.shed,
                    t.cancelled,
                    t.deadline_exceeded,
                    t.max_wait_ticks,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"desync-service/4\",\n",
                "  \"requests\": {},\n",
                "  \"coalesced\": {},\n",
                "  \"cache_hits\": {},\n",
                "  \"cache_misses\": {},\n",
                "  \"evictions\": {},\n",
                "  \"resident_weight\": {},\n",
                "  \"capacity\": {},\n",
                "  \"unbounded_resident_weight\": {},\n",
                "  \"lint_rejections\": {},\n",
                "  \"lint_cache_hits\": {},\n",
                "  \"bounded_matches_unbounded\": {},\n",
                "  \"queue_depth\": {},\n",
                "  \"queue_high_water\": {},\n",
                "  \"shed\": {},\n",
                "  \"cancelled\": {},\n",
                "  \"deadline_exceeded\": {},\n",
                "  \"panics_contained\": {},\n",
                "  \"block_policy_completed\": {},\n",
                "  \"faulty_survivors_match\": {},\n",
                "  \"tenants\": [\n{}\n  ],\n",
                "  \"wall_ms\": {:.3}\n",
                "}}\n"
            ),
            self.requests,
            self.coalesced,
            self.cache_hits,
            self.cache_misses,
            self.evictions,
            self.resident_weight,
            self.capacity,
            self.unbounded_resident_weight,
            self.lint_rejections,
            self.lint_cache_hits,
            self.bounded_matches_unbounded,
            self.queue_depth,
            self.queue_high_water,
            self.shed,
            self.cancelled,
            self.deadline_exceeded,
            self.panics_contained,
            self.block_policy_completed,
            self.faulty_survivors_match,
            tenants,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

impl fmt::Display for ServiceBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service workload: {} requests ({} coalesced), wall {} ms",
            self.requests,
            self.coalesced,
            self.wall.as_millis()
        )?;
        writeln!(
            f,
            "  store traffic: {} hit(s) / {} miss(es), {} eviction(s)",
            self.cache_hits, self.cache_misses, self.evictions
        )?;
        writeln!(
            f,
            "  bounded store: {} / {} weight resident (unbounded twin: {})",
            self.resident_weight, self.capacity, self.unbounded_resident_weight
        )?;
        writeln!(
            f,
            "  lint: {} rejection(s) at admission, {} cached report(s)",
            self.lint_rejections, self.lint_cache_hits
        )?;
        writeln!(
            f,
            "  bounded results bit-identical to unbounded: {}",
            self.bounded_matches_unbounded
        )?;
        writeln!(
            f,
            "  faulty traffic: depth {} (high water {}), {} shed, {} cancelled, {} past deadline",
            self.queue_depth,
            self.queue_high_water,
            self.shed,
            self.cancelled,
            self.deadline_exceeded
        )?;
        writeln!(
            f,
            "  containment: {} panic(s) contained, block policy drained: {}, survivors match: {}",
            self.panics_contained, self.block_policy_completed, self.faulty_survivors_match
        )?;
        write!(f, "  tenants:")?;
        for t in &self.tenants {
            write!(
                f,
                " [{}: {} submitted, {} shed]",
                t.tenant, t.submitted, t.shed
            )?;
        }
        Ok(())
    }
}

/// One phase: `ROUNDS` duplicate-heavy batches through `service`. Returns
/// the per-phase result list (of the final round) and accumulates the
/// service-report counters.
fn run_phase(
    service: &DesyncService,
    requests: &[ServiceRequest<'_>],
    totals: &mut ServiceBenchReport,
) -> Vec<Result<DesyncDesign, DesyncError>> {
    let mut last = Vec::new();
    for _ in 0..ROUNDS {
        let outcome = service.run_batch(requests);
        totals.requests += outcome.report.requests;
        totals.coalesced += outcome.report.coalesced;
        let store = &outcome.report.store;
        totals.cache_hits += store.total_hits();
        totals.cache_misses += store.total_misses();
        totals.evictions += store.total_evictions();
        totals.lint_rejections += outcome.report.lint_rejections;
        totals.lint_cache_hits += store.kind(ArtifactKind::Lint).hits;
        last = outcome.results;
    }
    last
}

/// A deliberately malformed design: a three-stage pipeline whose middle
/// net has two drivers (NL001). The service must turn it away at admission
/// — rejections are pure lint work, zero stage computations.
pub fn poisoned_design() -> Netlist {
    let mut n = Netlist::new("poisoned");
    let clk = n.add_input("clk");
    let a = n.add_input("a");
    let q0 = n.add_net("q0");
    let w = n.add_net("w");
    let y = n.add_output("y");
    n.add_dff("r0", a, clk, q0).expect("poisoned dff");
    n.add_gate("g0", CellKind::Not, &[q0], w)
        .expect("poisoned gate");
    n.add_gate("dup", CellKind::Buf, &[a], w)
        .expect("poisoned dup driver");
    n.add_dff("r1", w, clk, y).expect("poisoned dff");
    n
}

/// A clean three-stage pipeline for the faulty-traffic phase; `name`
/// varies the structural hash, giving each design a distinct fault tag.
fn faulty_phase_design(name: &str) -> Netlist {
    let mut n = Netlist::new(name);
    let clk = n.add_input("clk");
    let a = n.add_input("a");
    let q0 = n.add_net("q0");
    let w0 = n.add_net("w0");
    let q1 = n.add_net("q1");
    let w1 = n.add_net("w1");
    let q2 = n.add_output("q2");
    n.add_dff("r0", a, clk, q0).expect("faulty-phase dff");
    n.add_gate("g0", CellKind::Not, &[q0], w0)
        .expect("faulty-phase gate");
    n.add_dff("r1", w0, clk, q1).expect("faulty-phase dff");
    n.add_gate("g1", CellKind::Buf, &[q1], w1)
        .expect("faulty-phase gate");
    n.add_dff("r2", w1, clk, q2).expect("faulty-phase dff");
    n
}

/// Pending-depth bound of the faulty phase's reject-new queue.
const FAULTY_QUEUE_DEPTH: usize = 5;

/// Phase 3: faulty traffic through the asynchronous submission queue.
///
/// Two sub-scenarios share one pair of designs (a `victim` that injected
/// faults target by content tag, and a `bystander` that must come through
/// untouched):
///
/// 1. a **reject-new** queue of depth [`FAULTY_QUEUE_DEPTH`], paused so
///    the whole burst lands at once — the overload past the bound must
///    shed as [`DesyncError::QueueFull`], pre-cancelled /
///    deadline-busted requests must resolve with their typed errors
///    without costing engine work, and a salted-in [`poisoned_design`]
///    must be turned away at admission with `LintRejected`;
/// 2. a **block-submitter** queue of depth 1 fed more requests than it
///    can hold — admission must throttle the submitter and the batch must
///    drain without deadlock.
///
/// Under `--features failpoints` a fault plan panics the victim's timed
/// stage; containment (typed [`DesyncError::StagePanicked`], bystanders
/// bit-identical, no wedged in-flight keys) is folded into the report's
/// `panics_contained` / `faulty_survivors_match` fields.
fn run_faulty_phase(report: &mut ServiceBenchReport) {
    let library = CellLibrary::generic_90nm();
    let victim = faulty_phase_design("faulty_victim");
    let bystander = faulty_phase_design("faulty_bystander");
    let options = desync_core::DesyncOptions::default();

    // Fault-free baselines, computed before any plan is installed.
    let baseline_service = DesyncService::new();
    let baselines = baseline_service.run_batch(&[
        ServiceRequest::new(&victim, &library, options),
        ServiceRequest::new(&bystander, &library, options),
    ]);
    let baseline_victim = baselines.results[0].as_ref().expect("baseline victim");
    let baseline_bystander = baselines.results[1].as_ref().expect("baseline bystander");

    // With the harness compiled in, panic the victim's timed stage.
    #[cfg(feature = "failpoints")]
    let scope = desync_core::failpoints::FaultScope::install(
        desync_core::failpoints::FaultPlan::new().with_fault(
            "stage::timed",
            victim.structural_hash(),
            desync_core::failpoints::FaultAction::Panic,
        ),
    );

    let mut survivors_match = true;
    let mut check_survivor = |result: &Result<DesyncDesign, DesyncError>, is_victim: bool| {
        if let Ok(design) = result {
            let baseline = if is_victim {
                baseline_victim
            } else {
                baseline_bystander
            };
            survivors_match &= design == baseline;
        }
    };

    // Scenario 1: bounded reject-new queue under a paused burst. The first
    // two admitted requests are a pre-cancelled and a deadline-busted one
    // (they resolve without engine work), then victim/bystander fill the
    // queue, and the rest of the burst sheds at admission.
    {
        let engine = Arc::new(DesyncEngine::with_workers(2));
        let queue = ServiceQueue::new(
            Arc::clone(&engine),
            QueueConfig::with_workers(2)
                .with_depth(FAULTY_QUEUE_DEPTH)
                .with_admission(AdmissionPolicy::RejectNew),
        );
        let request = |netlist: &Netlist| {
            QueueRequest::new(
                engine.intern_netlist(netlist),
                engine.intern_library(&library),
                options,
            )
        };
        // Tagged traffic: tenant 1 is the interactive client, tenant 2
        // submits the poisoned design, tenant 3 is the overload burst —
        // so the shed requests attribute to the burster in the report.
        let interactive = TenantId::new(1);
        let poisoner = TenantId::new(2);
        let burster = TenantId::new(3);
        queue.pause();
        let doomed = CancelToken::new();
        let cancelled_ticket = queue.submit(
            request(&bystander),
            SubmitOptions::new()
                .with_meta(SubmitMeta::new().with_tenant(interactive))
                .with_cancel(doomed.clone()),
        );
        doomed.cancel();
        let late_ticket = queue.submit(
            request(&bystander),
            SubmitOptions::new()
                .with_meta(SubmitMeta::new().with_tenant(interactive))
                .with_deadline(Duration::ZERO),
        );
        let victim_ticket = queue.submit(
            request(&victim),
            SubmitOptions::new().with_meta(SubmitMeta::new().with_tenant(interactive)),
        );
        let bystander_ticket = queue.submit(
            request(&bystander),
            SubmitOptions::new().with_meta(SubmitMeta::new().with_tenant(interactive)),
        );
        let poisoned = poisoned_design();
        let poisoned_ticket = queue.submit(
            request(&poisoned),
            SubmitOptions::new().with_meta(SubmitMeta::new().with_tenant(poisoner)),
        );
        let overload: Vec<_> = (0..4)
            .map(|_| {
                queue.submit(
                    request(&bystander),
                    SubmitOptions::new().with_meta(SubmitMeta::new().with_tenant(burster)),
                )
            })
            .collect();
        queue.resume();

        assert_eq!(
            cancelled_ticket.wait(),
            Err(DesyncError::Cancelled),
            "a pre-cancelled request must resolve without engine work"
        );
        assert_eq!(late_ticket.wait(), Err(DesyncError::DeadlineExceeded));
        check_survivor(&victim_ticket.wait(), true);
        check_survivor(&bystander_ticket.wait(), false);
        assert!(
            matches!(poisoned_ticket.wait(), Err(DesyncError::LintRejected(_))),
            "the malformed design must be turned away at admission"
        );
        for ticket in overload {
            assert!(
                matches!(ticket.wait(), Err(DesyncError::QueueFull { .. })),
                "overload past the bound must shed at admission"
            );
        }
        let counters = queue.counters();
        report.queue_depth = FAULTY_QUEUE_DEPTH;
        report.queue_high_water = report.queue_high_water.max(counters.high_water);
        report.tenants = counters.tenants.clone();
        report.shed += counters.shed;
        report.cancelled += counters.cancelled;
        report.deadline_exceeded += counters.deadline_exceeded;
        report.panics_contained += counters.panics_contained;
        assert_eq!(
            engine.inflight_artifacts(),
            0,
            "faulty traffic must never wedge the in-flight registry"
        );
    }

    // Scenario 2: depth-1 block-submitter queue fed a burst larger than
    // its bound — admission throttles this thread while the workers drain,
    // and every ticket must still resolve (no deadlock, nothing shed).
    {
        let engine = Arc::new(DesyncEngine::with_workers(2));
        let queue = ServiceQueue::new(
            Arc::clone(&engine),
            QueueConfig::with_workers(2)
                .with_depth(1)
                .with_admission(AdmissionPolicy::BlockSubmitter),
        );
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let netlist = if i % 2 == 0 { &victim } else { &bystander };
                let request = QueueRequest::new(
                    engine.intern_netlist(netlist),
                    engine.intern_library(&library),
                    options,
                );
                (i % 2 == 0, queue.submit(request, SubmitOptions::new()))
            })
            .collect();
        let mut drained = true;
        for (is_victim, ticket) in tickets {
            let result = ticket.wait();
            drained &= !matches!(result, Err(DesyncError::QueueFull { .. }));
            check_survivor(&result, is_victim);
        }
        let counters = queue.counters();
        report.block_policy_completed = drained && counters.shed == 0;
        report.queue_high_water = report.queue_high_water.max(counters.high_water);
        report.panics_contained += counters.panics_contained;
        assert_eq!(engine.inflight_artifacts(), 0);
    }

    #[cfg(feature = "failpoints")]
    {
        assert!(
            scope.total_fired() > 0,
            "the failpoints build must actually inject faults"
        );
        drop(scope);
    }
    report.faulty_survivors_match = survivors_match;
}

/// Runs the two store phases over the stock mixed designs plus the
/// [`poisoned_design`] (whose requests must all be lint-rejected at
/// admission), then the faulty-traffic phase 3 (`run_faulty_phase`) over
/// the asynchronous submission queue.
pub fn run_service_bench() -> ServiceBenchReport {
    let mut designs = mixed_designs();
    designs.push(poisoned_design());
    let library = CellLibrary::generic_90nm();
    let options = mixed_options();

    // Duplicate-heavy batch: every (design, options) pair appears
    // `DUPLICATES_PER_BATCH` times *in the same batch*, so the duplicates
    // are genuinely in flight together. The poisoned design rides along
    // under every option set — admission control must reject each of its
    // requests with the same witness-bearing lint report.
    let mut requests = Vec::new();
    for _ in 0..DUPLICATES_PER_BATCH {
        for design in &designs {
            for &opts in &options {
                requests.push(ServiceRequest::new(design, &library, opts));
            }
        }
    }

    let mut report = ServiceBenchReport {
        requests: 0,
        coalesced: 0,
        cache_hits: 0,
        cache_misses: 0,
        evictions: 0,
        resident_weight: 0,
        capacity: 0,
        unbounded_resident_weight: 0,
        lint_rejections: 0,
        lint_cache_hits: 0,
        bounded_matches_unbounded: false,
        queue_depth: 0,
        queue_high_water: 0,
        shed: 0,
        cancelled: 0,
        deadline_exceeded: 0,
        panics_contained: 0,
        block_policy_completed: false,
        faulty_survivors_match: false,
        tenants: Vec::new(),
        wall: Duration::ZERO,
    };
    let started = Instant::now();

    // Phase 1: unbounded store — the PR-2/PR-3 behaviour, reproducing the
    // historical hit rates (no eviction can ever interfere).
    let unbounded = DesyncService::new();
    let unbounded_results = run_phase(&unbounded, &requests, &mut report);
    report.unbounded_resident_weight = unbounded.engine().report().resident_weight;
    assert_eq!(
        unbounded.engine().report().total_evictions(),
        0,
        "an unbounded store must never evict"
    );

    // Phase 2: a store two-thirds the size of what the workload wants to
    // keep resident. Eviction must kick in, and every recomputed design
    // must still be bit-identical.
    // One request group at a time: which entry the LRU evicts depends on
    // the order of inserts and lookups, so this keeps the eviction count
    // and resident weight the same on every run and host.
    let capacity = (report.unbounded_resident_weight * 2 / 3).max(1);
    let bounded = DesyncService::with_engine(DesyncEngine::with_store(
        StoreConfig::default().with_capacity(capacity),
    ))
    .with_concurrency(1);
    let bounded_results = run_phase(&bounded, &requests, &mut report);
    report.capacity = capacity;
    report.resident_weight = bounded.engine().report().resident_weight;
    // Plain result equality: designs must be bit-identical where both
    // phases succeed, and lint rejections must carry payload-equal reports
    // (DesyncError::LintRejected compares the diagnostics, not the Arc).
    report.bounded_matches_unbounded = unbounded_results
        .iter()
        .zip(&bounded_results)
        .all(|(a, b)| a == b);

    // Phase 3: faulty traffic through the asynchronous submission queue.
    run_faulty_phase(&mut report);

    report.wall = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_circuits::{counter::binary_counter, LinearPipelineConfig};

    #[test]
    fn bounded_service_evicts_and_still_matches_unbounded() {
        let designs = vec![
            LinearPipelineConfig::balanced(3, 4, 1).generate().unwrap(),
            LinearPipelineConfig::balanced(4, 6, 2).generate().unwrap(),
            binary_counter(4).unwrap(),
        ];
        let library = CellLibrary::generic_90nm();
        let options = mixed_options();
        let mut requests = Vec::new();
        for design in &designs {
            for &opts in &options {
                requests.push(ServiceRequest::new(design, &library, opts));
                requests.push(ServiceRequest::new(design, &library, opts));
            }
        }

        let unbounded = DesyncService::with_engine(DesyncEngine::with_workers(2));
        let full = unbounded.run_batch(&requests);
        assert_eq!(full.report.coalesced, requests.len() / 2);
        assert_eq!(full.report.store.total_evictions(), 0);
        let total_weight = unbounded.engine().report().resident_weight;
        assert!(total_weight > 0);

        let capacity = (total_weight / 2).max(1);
        let bounded = DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            StoreConfig::default().with_capacity(capacity),
            desync_core::DesyncRuntime::with_workers(2),
        ));
        let small = bounded.run_batch(&requests);
        // Eviction kicked in, the resident weight is bounded, and every
        // design still came out bit-identical (recomputed where evicted).
        assert!(small.report.store.total_evictions() > 0, "{}", small.report);
        assert!(
            small.report.store.resident_weight <= capacity,
            "{} > {capacity}",
            small.report.store.resident_weight
        );
        for (a, b) in full.results.iter().zip(&small.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // A fresh flow after heavy eviction churn also still agrees.
        let probe = requests[0];
        let recomputed = bounded.run_batch(&[probe]).results.pop().unwrap().unwrap();
        assert_eq!(&recomputed, full.results[0].as_ref().unwrap());
        // The engine report accounts the lint kind in its own table row.
        let engine_text = bounded.engine().report().to_string();
        assert!(engine_text.contains("lint"), "{engine_text}");
    }

    #[test]
    fn stock_service_bench_exercises_coalescing_eviction_and_admission() {
        let report = run_service_bench();
        // 5 stock designs + the poisoned one, under 3 option sets each.
        assert_eq!(
            report.requests,
            2 * ROUNDS * DUPLICATES_PER_BATCH * 6 * 3,
            "{report}"
        );
        assert!(report.coalesced > 0);
        assert!(report.cache_hits > 0);
        assert!(report.evictions > 0);
        assert!(report.resident_weight <= report.capacity);
        // Every poisoned request was turned away at admission, in both
        // phases and every round.
        assert_eq!(
            report.lint_rejections,
            2 * ROUNDS * DUPLICATES_PER_BATCH * 3,
            "{report}"
        );
        assert!(report.lint_cache_hits > 0, "{report}");
        assert!(report.bounded_matches_unbounded);
        // The faulty-traffic phase: the reject queue shed its overload,
        // the block queue drained, the typed cancel/deadline errors were
        // counted, and every survivor stayed bit-identical.
        assert_eq!(report.queue_depth, FAULTY_QUEUE_DEPTH, "{report}");
        assert_eq!(report.shed, 4, "{report}");
        assert_eq!(report.cancelled, 1, "{report}");
        assert_eq!(report.deadline_exceeded, 1, "{report}");
        assert!(report.queue_high_water >= FAULTY_QUEUE_DEPTH, "{report}");
        assert!(report.block_policy_completed, "{report}");
        assert!(report.faulty_survivors_match, "{report}");
        // Panic containment fires exactly when the harness is compiled in.
        if cfg!(feature = "failpoints") {
            assert!(report.panics_contained > 0, "{report}");
        } else {
            assert_eq!(report.panics_contained, 0, "{report}");
        }
        let text = report.to_string();
        assert!(text.contains("rejection(s) at admission"), "{text}");
        assert!(text.contains("faulty traffic"), "{text}");
        // The tagged faulty traffic attributes the whole shed burst to
        // the bursting tenant, leaving the others untouched.
        let by_tenant: Vec<(u32, usize, usize)> = report
            .tenants
            .iter()
            .map(|t| (t.tenant.id(), t.submitted, t.shed))
            .collect();
        assert_eq!(by_tenant, vec![(1, 4, 0), (2, 1, 0), (3, 0, 4)], "{report}");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"desync-service/4\""));
        assert!(json.contains("\"coalesced\""));
        assert!(json.contains("\"resident_weight\""));
        assert!(json.contains("\"lint_rejections\""));
        assert!(json.contains("\"lint_cache_hits\""));
        assert!(json.contains("\"shed\": 4"));
        assert!(json.contains("\"block_policy_completed\": true"));
        assert!(json.contains("\"faulty_survivors_match\": true"));
        assert!(json.contains("\"tenants\": ["), "{json}");
        assert!(
            json.contains("{ \"tenant\": 3, \"submitted\": 0, \"dispatched\": 0, \"shed\": 4,"),
            "{json}"
        );
    }
}
