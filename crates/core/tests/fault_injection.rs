//! The deterministic fault-injection suite (`--features failpoints`).
//!
//! Every test installs a [`FaultPlan`] — panics, typed errors and
//! scheduling delays at named pipeline failpoints, targeted by request
//! content tag — and asserts the service's containment guarantees:
//!
//! * exactly the targeted requests fail, with the expected *typed* error
//!   ([`DesyncError::StagePanicked`] naming the stage, or
//!   [`DesyncError::FaultInjected`] naming the site),
//! * every surviving request's result is **bit-identical** to a
//!   fault-free serial run — across 1 vs 4 workers and shuffled
//!   submission orders,
//! * no injected panic ever wedges the store's in-flight leader/follower
//!   registry (`inflight_artifacts() == 0` after every campaign, and the
//!   engine still serves the previously-faulted request once the plan is
//!   uninstalled),
//! * pure [`FaultAction::Delay`] schedules change nothing at all.
//!
//! Campaigns serialize process-wide through [`FaultScope`], so these tests
//! coexist with `cargo test`'s in-process concurrency.

#![cfg(feature = "failpoints")]

use desync_core::failpoints::{FaultAction, FaultPlan, FaultScope, ANY_TAG};
use desync_core::{
    DesyncEngine, DesyncError, DesyncOptions, DesyncService, QueueConfig, QueueRequest,
    ServiceQueue, ServiceRequest, SubmitOptions, SweepRequest,
};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use desync_sim::VectorSource;
use std::sync::Arc;

/// A three-stage synchronous pipeline; `name` varies the structural hash
/// (the netlist name participates in identity), giving distinct fault tags.
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

/// A deterministic permutation of `0..len` derived from `seed`.
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..len).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state as usize) % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Runs `requests` (by index order `order`) through a fresh engine + queue
/// with `workers` workers, returning one result per *submitted* position.
fn run_queue(
    requests: &[(Netlist, DesyncOptions)],
    order: &[usize],
    workers: usize,
) -> (Vec<Result<desync_core::DesyncDesign, DesyncError>>, usize) {
    let engine = Arc::new(DesyncEngine::with_workers(2));
    let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(workers));
    let library = CellLibrary::generic_90nm();
    queue.pause();
    let tickets: Vec<_> = order
        .iter()
        .map(|&i| {
            let (netlist, options) = &requests[i];
            let request = QueueRequest::new(
                engine.intern_netlist(netlist),
                engine.intern_library(&library),
                *options,
            );
            queue.submit(request, SubmitOptions::new())
        })
        .collect();
    queue.resume();
    let mut results: Vec<Option<Result<desync_core::DesyncDesign, DesyncError>>> =
        (0..requests.len()).map(|_| None).collect();
    for (&i, ticket) in order.iter().zip(tickets) {
        results[i] = Some(ticket.wait());
    }
    let inflight = engine.inflight_artifacts();
    (
        results
            .into_iter()
            .map(|r| r.expect("every slot ran"))
            .collect(),
        inflight,
    )
}

/// Fault-free serial baseline for `requests`.
fn baseline(
    requests: &[(Netlist, DesyncOptions)],
) -> Vec<Result<desync_core::DesyncDesign, DesyncError>> {
    let order: Vec<usize> = (0..requests.len()).collect();
    let (results, inflight) = run_queue(requests, &order, 1);
    assert_eq!(inflight, 0);
    results
}

#[test]
fn targeted_stage_panic_is_contained_per_request() {
    let victim = pipeline3("victim");
    let bystander = pipeline3("bystander");
    let library = CellLibrary::generic_90nm();
    let requests = vec![
        (victim.clone(), DesyncOptions::default()),
        (bystander.clone(), DesyncOptions::default()),
        (victim.clone(), DesyncOptions::default().with_margin(0.2)),
        (bystander.clone(), DesyncOptions::default().with_margin(0.2)),
    ];
    let clean = baseline(&requests);
    assert!(clean.iter().all(|r| r.is_ok()));

    let scope = FaultScope::install(FaultPlan::new().with_fault(
        "stage::timed",
        victim.structural_hash(),
        FaultAction::Panic,
    ));
    for workers in [1usize, 4] {
        for shuffle in [3u64, 17] {
            let order = permutation(requests.len(), shuffle);
            let (results, inflight) = run_queue(&requests, &order, workers);
            assert_eq!(inflight, 0, "no wedged in-flight keys");
            // Exactly the victim's requests fail, with the stage named.
            for (index, result) in results.iter().enumerate() {
                if index % 2 == 0 {
                    match result {
                        Err(DesyncError::StagePanicked { stage, message }) => {
                            assert_eq!(*stage, "timed");
                            assert!(message.contains("stage::timed"), "{message}");
                        }
                        other => panic!("victim request {index} got {other:?}"),
                    }
                } else {
                    assert_eq!(
                        result.as_ref().unwrap(),
                        clean[index].as_ref().unwrap(),
                        "bystander {index} must be bit-identical to fault-free"
                    );
                }
            }
        }
    }
    assert!(scope.total_fired() >= 4, "the fault must actually fire");
    drop(scope);

    // The uninstalled plan leaves no residue: the victim now succeeds on a
    // fresh engine and equals its own fault-free baseline.
    let order: Vec<usize> = (0..requests.len()).collect();
    let (healed, inflight) = run_queue(&requests, &order, 4);
    assert_eq!(inflight, 0);
    assert_eq!(healed, clean);
    let _ = library;
}

#[test]
fn followers_of_a_failed_leader_retry_or_surface_the_error() {
    // Five *identical* requests race on the same store keys: whichever
    // becomes the leader panics at publication, its followers retry,
    // become leaders themselves, and panic too — every ticket resolves
    // with the typed error, none hangs, and the registry drains.
    let victim = pipeline3("leaderless");
    let requests: Vec<(Netlist, DesyncOptions)> = (0..5)
        .map(|_| (victim.clone(), DesyncOptions::default()))
        .collect();
    let scope = FaultScope::install(FaultPlan::new().with_fault(
        "store::insert",
        victim.structural_hash(),
        FaultAction::Panic,
    ));
    let order: Vec<usize> = (0..requests.len()).collect();
    let (results, inflight) = run_queue(&requests, &order, 4);
    assert_eq!(inflight, 0, "failed leaders must unregister their keys");
    for result in &results {
        match result {
            Err(DesyncError::StagePanicked { message, .. }) => {
                assert!(message.contains("store::insert"), "{message}");
            }
            other => panic!("expected contained publication panic, got {other:?}"),
        }
    }
    assert!(scope.total_fired() >= 5);
    drop(scope);

    // Registry healthy: the same work succeeds once the plan is gone.
    let (healed, inflight) = run_queue(&requests, &order, 4);
    assert_eq!(inflight, 0);
    assert!(healed.iter().all(|r| r.is_ok()));
}

#[test]
fn error_faults_surface_fault_injected() {
    let victim = pipeline3("erring");
    let bystander = pipeline3("fine");
    let requests = vec![
        (victim.clone(), DesyncOptions::default()),
        (bystander.clone(), DesyncOptions::default()),
    ];
    let clean = baseline(&requests);

    let _scope = FaultScope::install(FaultPlan::new().with_fault(
        "stage::controlled",
        victim.structural_hash(),
        FaultAction::Error,
    ));
    for workers in [1usize, 4] {
        let order: Vec<usize> = (0..requests.len()).collect();
        let (results, inflight) = run_queue(&requests, &order, workers);
        assert_eq!(inflight, 0);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &DesyncError::FaultInjected {
                site: "stage::controlled"
            }
        );
        assert_eq!(results[1].as_ref().unwrap(), clean[1].as_ref().unwrap());
    }
}

#[test]
fn delay_faults_change_nothing() {
    let a = pipeline3("delay_a");
    let b = pipeline3("delay_b");
    let requests = vec![
        (a.clone(), DesyncOptions::default()),
        (b.clone(), DesyncOptions::default()),
        (a.clone(), DesyncOptions::default().with_margin(0.2)),
    ];
    let clean = baseline(&requests);

    let mut plan = FaultPlan::new();
    for site in [
        "stage::clustered",
        "stage::latched",
        "stage::timed",
        "stage::controlled",
        "store::insert",
    ] {
        plan = plan.with_fault(site, ANY_TAG, FaultAction::Delay);
    }
    let scope = FaultScope::install(plan);
    for workers in [1usize, 4] {
        for shuffle in [5u64, 23] {
            let order = permutation(requests.len(), shuffle);
            let (results, inflight) = run_queue(&requests, &order, workers);
            assert_eq!(inflight, 0);
            assert_eq!(results, clean, "delays must be invisible in results");
        }
    }
    assert!(scope.total_fired() > 0, "the delays must actually fire");
}

#[test]
fn sim_commit_faults_fail_only_targeted_sweep_points() {
    let victim = pipeline3("sweep_victim");
    let bystander = pipeline3("sweep_fine");
    let library = CellLibrary::generic_90nm();
    let stim_v = VectorSource::pseudo_random(vec![victim.find_net("a").unwrap()], 7);
    let stim_b = VectorSource::pseudo_random(vec![bystander.find_net("a").unwrap()], 7);
    let points = vec![
        SweepRequest::new(&victim, &library, DesyncOptions::default(), &stim_v, 8),
        SweepRequest::new(&bystander, &library, DesyncOptions::default(), &stim_b, 8),
        SweepRequest::new(
            &victim,
            &library,
            DesyncOptions::default().with_margin(0.2),
            &stim_v,
            8,
        ),
    ];

    let clean = DesyncService::with_engine(DesyncEngine::with_workers(1)).run_sweep(&points);
    assert_eq!(clean.report.failures, 0);

    let _scope = FaultScope::install(FaultPlan::new().with_fault(
        "sim::commit",
        victim.structural_hash(),
        FaultAction::Error,
    ));
    for workers in [1usize, 4] {
        let service =
            DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(workers);
        let outcome = service.run_sweep(&points);
        assert_eq!(service.engine().inflight_artifacts(), 0);
        assert_eq!(
            outcome.results[0].as_ref().unwrap_err(),
            &DesyncError::FaultInjected {
                site: "sim::commit"
            }
        );
        assert_eq!(
            outcome.results[2].as_ref().unwrap_err(),
            &DesyncError::FaultInjected {
                site: "sim::commit"
            }
        );
        assert_eq!(
            outcome.results[1].as_ref().unwrap(),
            clean.results[1].as_ref().unwrap(),
            "the bystander point must be bit-identical to fault-free"
        );
        assert_eq!(outcome.report.failures, 2);
    }
}

#[test]
fn sim_commit_faults_fire_once_per_packed_campaign_point() {
    use desync_core::CampaignRequest;
    use desync_sim::PackedVectorSource;

    let victim = pipeline3("campaign_victim");
    let bystander = pipeline3("campaign_fine");
    let library = CellLibrary::generic_90nm();
    let seeds: Vec<u64> = (1..=64).collect();
    let stim_v = PackedVectorSource::pseudo_random(vec![victim.find_net("a").unwrap()], &seeds);
    let stim_b = PackedVectorSource::pseudo_random(vec![bystander.find_net("a").unwrap()], &seeds);
    let points = vec![
        CampaignRequest::new(&victim, &library, DesyncOptions::default(), &stim_v, 8),
        CampaignRequest::new(&bystander, &library, DesyncOptions::default(), &stim_b, 8),
        CampaignRequest::new(
            &victim,
            &library,
            DesyncOptions::default().with_margin(0.2),
            &stim_v,
            8,
        ),
    ];

    let clean = DesyncService::with_engine(DesyncEngine::with_workers(1)).run_campaign(&points);
    assert_eq!(clean.report.failures, 0);

    let scope = FaultScope::install(FaultPlan::new().with_fault(
        "sim::commit",
        victim.structural_hash(),
        FaultAction::Error,
    ));
    let service = DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(2);
    let outcome = service.run_campaign(&points);
    assert_eq!(service.engine().inflight_artifacts(), 0);
    for index in [0usize, 2] {
        assert_eq!(
            outcome.results[index].as_ref().unwrap_err(),
            &DesyncError::FaultInjected {
                site: "sim::commit"
            }
        );
    }
    assert_eq!(
        outcome.results[1].as_ref().unwrap(),
        clean.results[1].as_ref().unwrap(),
        "the bystander campaign point must be bit-identical to fault-free"
    );
    assert_eq!(outcome.report.failures, 2);
    // The failpoint fires once per packed commit — per *point*, not per
    // lane: two victim points, two firings, despite 64 lanes each.
    assert_eq!(scope.total_fired(), 2);
    drop(scope);

    // Tag-targeted plans treat scalar sweep points and packed campaign
    // points identically: the same plan against the scalar sweep yields
    // the same typed error on the victim.
    let scalar_stim = VectorSource::pseudo_random(vec![victim.find_net("a").unwrap()], 1);
    let scalar_points = vec![SweepRequest::new(
        &victim,
        &library,
        DesyncOptions::default(),
        &scalar_stim,
        8,
    )];
    let _scope = FaultScope::install(FaultPlan::new().with_fault(
        "sim::commit",
        victim.structural_hash(),
        FaultAction::Error,
    ));
    let scalar_outcome =
        DesyncService::with_engine(DesyncEngine::with_workers(1)).run_sweep(&scalar_points);
    assert_eq!(
        scalar_outcome.results[0].as_ref().unwrap_err(),
        &DesyncError::FaultInjected {
            site: "sim::commit"
        }
    );
}

#[test]
fn wrapper_batches_contain_panics_and_report_them() {
    let victim = pipeline3("reported");
    let bystander = pipeline3("unharmed");
    let library = CellLibrary::generic_90nm();
    let _scope = FaultScope::install(FaultPlan::new().with_fault(
        "stage::latched",
        victim.structural_hash(),
        FaultAction::Panic,
    ));
    let service = DesyncService::with_engine(DesyncEngine::with_workers(2)).with_concurrency(4);
    let requests = vec![
        ServiceRequest::new(&victim, &library, DesyncOptions::default()),
        ServiceRequest::new(&bystander, &library, DesyncOptions::default()),
    ];
    let outcome = service.run_batch(&requests);
    assert!(matches!(
        outcome.results[0],
        Err(DesyncError::StagePanicked {
            stage: "latched",
            ..
        })
    ));
    assert!(outcome.results[1].is_ok());
    assert_eq!(outcome.report.panics_contained, 1);
    assert_eq!(outcome.report.failures, 1);
    assert_eq!(service.engine().inflight_artifacts(), 0);
    let text = outcome.report.to_string();
    assert!(text.contains("1 panic(s) contained"), "{text}");
}

#[test]
fn seeded_campaigns_reproduce_across_workers_and_orders() {
    // The property at the heart of the harness: under a seeded plan of
    // random panics/errors/delays, the per-request outcome *kind* and
    // every surviving result are a pure function of (request, plan) —
    // independent of worker count and submission order.
    let a = pipeline3("prop_a");
    let b = pipeline3("prop_b");
    let requests = vec![
        (a.clone(), DesyncOptions::default()),
        (b.clone(), DesyncOptions::default()),
        (a.clone(), DesyncOptions::default().with_margin(0.2)),
        (b.clone(), DesyncOptions::default().with_margin(0.2)),
        (a.clone(), DesyncOptions::default()),
    ];
    let clean = baseline(&requests);
    let tags = [a.structural_hash(), b.structural_hash()];

    for seed in [1u64, 7, 42, 1337] {
        let scope = FaultScope::install(FaultPlan::seeded(seed, 3, &tags));
        let mut reference: Option<Vec<Result<_, _>>> = None;
        for workers in [1usize, 4] {
            for shuffle in [0u64, 11, 29] {
                let order = permutation(requests.len(), shuffle);
                let (results, inflight) = run_queue(&requests, &order, workers);
                assert_eq!(inflight, 0, "seed {seed}: wedged registry");
                // Survivors are bit-identical to the fault-free baseline.
                for (result, clean) in results.iter().zip(&clean) {
                    if let Ok(design) = result {
                        assert_eq!(design, clean.as_ref().unwrap(), "seed {seed}");
                    }
                }
                // And the full outcome vector (including every typed
                // error) reproduces across schedules.
                match &reference {
                    None => reference = Some(results),
                    Some(expected) => {
                        assert_eq!(
                            &results, expected,
                            "seed {seed}, workers {workers}, shuffle {shuffle}: \
                             outcomes must not depend on scheduling"
                        );
                    }
                }
            }
        }
        drop(scope);
    }
}
