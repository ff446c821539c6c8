//! Property: parallel verification sweeps are bit-identical to fresh serial
//! flows — across random circuits, all three handshake protocols, two
//! matched-delay margins and *shuffled submission order*.
//!
//! This is the referee of the runtime-parallel sweep scheduler: whatever
//! the worker interleaving, whatever order points arrive in, every
//! [`EquivalenceReport`] (verdict, traces, activity, waveforms — full
//! structural equality, which for the f64-carrying simulation types means
//! bit-for-bit) must equal the report of a fresh detached,
//! serially-executed flow over the same point.

use desync_circuits::random::RandomCircuitConfig;
use desync_core::{
    ArtifactKind, DesyncEngine, DesyncFlow, DesyncOptions, DesyncService, Protocol, SweepRequest,
};
use desync_netlist::CellLibrary;
use desync_sim::VectorSource;
use proptest::prelude::*;

/// A deterministic permutation of `0..len` derived from `seed` (inline
/// Fisher–Yates over a splitmix-style stream, so the shuffle itself is
/// reproducible per sample).
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn parallel_sweep_reports_equal_fresh_serial_flows(
        seed in 1u64..500,
        shuffle in 0u64..1000,
    ) {
        let circuit = RandomCircuitConfig {
            inputs: 2,
            flip_flops: 5,
            gates: 12,
            outputs: 2,
            seed,
        }
        .generate()
        .expect("random circuit generation");
        let library = CellLibrary::generic_90nm();
        let data_inputs: Vec<_> = {
            let clock = circuit.single_clock().expect("single clock");
            circuit
                .inputs()
                .iter()
                .copied()
                .filter(|&n| n != clock)
                .collect()
        };
        let stimulus = VectorSource::pseudo_random(data_inputs, seed ^ 0xABCD);

        // The protocol × margin grid, submitted in a shuffled order.
        let mut points = Vec::new();
        for &protocol in Protocol::all() {
            for margin in [0.05, 0.2] {
                points.push(
                    DesyncOptions::default()
                        .with_protocol(protocol)
                        .with_margin(margin),
                );
            }
        }
        let order = permutation(points.len(), shuffle);
        let requests: Vec<SweepRequest<'_>> = order
            .iter()
            .map(|&i| SweepRequest::new(&circuit, &library, points[i], &stimulus, 10))
            .collect();

        let service =
            DesyncService::with_engine(DesyncEngine::with_workers(3)).with_concurrency(3);
        let outcome = service.run_sweep(&requests);
        prop_assert_eq!(outcome.report.failures, 0);

        // Every point's report equals a fresh, detached, serial flow.
        for (request, result) in requests.iter().zip(&outcome.results) {
            let mut fresh =
                DesyncFlow::new(request.netlist, request.library, request.options).unwrap();
            fresh.set_verification(request.stimulus.clone(), request.cycles);
            let fresh_report = fresh.verified().unwrap();
            let parallel_report = result.as_ref().unwrap();
            prop_assert_eq!(parallel_report, fresh_report);
        }

        // Shared artifacts were computed exactly once regardless of the
        // submission order: one sync reference and one datapath model per
        // design, one sizing analysis with one rebind per extra margin.
        let store = &outcome.report.store;
        prop_assert_eq!(store.kind(ArtifactKind::SyncRun).misses, 1);
        prop_assert_eq!(store.kind(ArtifactKind::Sizing).hits, 1);
        prop_assert_eq!(store.kind(ArtifactKind::SyncRun).hits, requests.len() - 1);
    }
}
