//! Golden property tests of the packed (bit-parallel) simulation kernel.
//!
//! The packed kernel in `desync-sim` carries up to 64 independent stimulus
//! lanes per net as two `u64` bit-planes, under a hard contract: every
//! plane-extracted lane is **bit-identical** to running the scalar kernel
//! (the golden reference, itself pinned by `sim_golden.rs`) with that
//! lane's scalar stimulus. This suite drives both kernels through the same
//! synchronous and desynchronized testbench scenarios over random circuits
//! and all three handshake protocols — including lane counts below 64, so
//! the masked tail lanes are exercised — and compares the full extracted
//! [`SimRun`](desync_sim::SimRun) per lane: capture streams (flow traces),
//! per-net activity counters, recorded waveforms, committed-event counts
//! and exact f64 durations.

use desync_circuits::random::RandomCircuitConfig;
use desync_core::{DesyncOptions, Desynchronizer, Protocol};
use desync_netlist::{CellLibrary, NetId, Netlist};
use desync_sim::{
    AsyncTestbench, PackedAsyncTestbench, PackedSyncTestbench, PackedVectorSource, SimConfig,
    SyncTestbench, VectorSource, MAX_LANES,
};
use proptest::prelude::*;

fn random_netlist(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    RandomCircuitConfig {
        inputs: 3,
        flip_flops,
        gates,
        outputs: 3,
        seed,
    }
    .generate()
    .expect("random generation")
}

fn data_inputs(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect()
}

/// Distinct per-lane stimulus seeds derived from one base seed.
fn lane_seeds(base: u64, lanes: usize) -> Vec<u64> {
    (0..lanes as u64)
        .map(|lane| base ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane))
        .collect()
}

/// Runs one packed synchronous testbench against `seeds.len()` scalar
/// runs and asserts every extracted lane equals its scalar sibling.
fn assert_sync_lanes_golden(
    netlist: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    cycles: usize,
    period_ps: f64,
    seeds: &[u64],
    watch: &[&str],
) {
    let nets = data_inputs(netlist);
    let packed_source = PackedVectorSource::pseudo_random(nets.clone(), seeds);
    let mut packed_tb =
        PackedSyncTestbench::new(netlist, library, config, seeds.len()).expect("single clock");
    packed_tb.watch_named(watch);
    let packed_run = packed_tb.run(cycles, period_ps, &packed_source);
    assert_eq!(packed_run.lanes(), seeds.len());
    // A packed commit is one word event regardless of lane count: the word
    // total can never exceed the scalar-equivalent lane total.
    assert!(packed_run.word_committed_events <= packed_run.lane_committed_events());

    for (lane, &seed) in seeds.iter().enumerate() {
        let source = VectorSource::pseudo_random(nets.clone(), seed);
        let mut scalar_tb = SyncTestbench::new(netlist, library, config).expect("single clock");
        scalar_tb.watch_named(watch);
        let scalar_run = scalar_tb.run(cycles, period_ps, &source);
        assert_eq!(
            packed_run.lane(lane),
            scalar_run,
            "sync lane {lane} (seed {seed:#x}) must be bit-identical to the scalar kernel"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Synchronous testbench: every extracted lane of a packed run is
    /// bit-identical to a scalar run with that lane's stimulus, for lane
    /// counts from 1 (all tail lanes masked) up to 8.
    #[test]
    fn packed_sync_lanes_are_golden(
        seed in 0u64..400,
        flip_flops in 2usize..10,
        gates in 5usize..40,
        cycles in 4usize..12,
        lanes in 1usize..=8,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let config = SimConfig::default();
        let seeds = lane_seeds(seed ^ 0x5a5a, lanes);
        let watch = ["in0", "ff0_q", "g0_y"];
        assert_sync_lanes_golden(&netlist, &library, config, cycles, 4_000.0, &seeds, &watch);
    }

    /// Desynchronized testbench: for every protocol, every extracted lane
    /// of a packed run over the latch datapath equals the scalar kernel
    /// driven by the same enable schedule and that lane's retimed inputs.
    #[test]
    fn packed_async_lanes_are_golden_all_protocols(
        seed in 0u64..200,
        flip_flops in 2usize..8,
        gates in 5usize..25,
        protocol_idx in 0usize..3,
        lanes in 1usize..=6,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let protocol = Protocol::all()[protocol_idx];
        let design = Desynchronizer::new(
            &netlist,
            &library,
            DesyncOptions::default().with_protocol(protocol),
        )
        .run()
        .expect("desynchronization");
        let config = SimConfig {
            wire_delay_per_fanout_ps: design.options().timing.wire_delay_per_fanout_ps,
            clk_to_q_ps: design.options().timing.clk_to_q_ps,
            latch_d_to_q_ps: design.options().timing.latch_d_to_q_ps,
        };
        let cycles = 8usize;
        let start_offset = design.synchronous_period_ps() + 1_000.0;
        let bundle = design.enable_schedule(cycles + 2, start_offset);
        let latch_netlist = design.latch_netlist();
        let seeds = lane_seeds(seed ^ 0x77, lanes);
        let nets = data_inputs(&netlist);
        let packed_source = PackedVectorSource::pseudo_random(nets.clone(), &seeds);

        // Retimed packed input vectors, exactly as the campaign harness
        // applies them (same order as the scalar harness — the stable time
        // sort preserves it, fixing the event sequence numbers).
        let mut packed_inputs = Vec::new();
        for (k, &t) in bundle.input_vector_times.iter().enumerate() {
            if k >= cycles {
                break;
            }
            for (net, value) in packed_source.packed_vector_for(k) {
                let name = netlist.net(net).name;
                if let Some(mapped) = latch_netlist.find_net_symbol(name) {
                    packed_inputs.push((t, mapped, value));
                }
            }
        }
        let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
        let watch_owned: Vec<String> = latch_netlist
            .inputs()
            .iter()
            .take(2)
            .map(|&n| latch_netlist.net(n).name.to_string())
            .collect();
        let watch: Vec<&str> = watch_owned.iter().map(String::as_str).collect();

        let mut packed_tb = PackedAsyncTestbench::new(latch_netlist, &library, config, lanes);
        packed_tb.watch_named(&watch);
        let packed_run = packed_tb.run(duration, cycles, &bundle.schedule, &packed_inputs);
        assert_eq!(packed_run.lanes(), lanes);
        assert!(packed_run.word_committed_events <= packed_run.lane_committed_events());

        for (lane, &lane_seed) in seeds.iter().enumerate() {
            let source = VectorSource::pseudo_random(nets.clone(), lane_seed);
            let mut inputs = Vec::new();
            for (k, &t) in bundle.input_vector_times.iter().enumerate() {
                if k >= cycles {
                    break;
                }
                for (net, value) in source.vector_for(k) {
                    let name = netlist.net(net).name;
                    if let Some(mapped) = latch_netlist.find_net_symbol(name) {
                        inputs.push((t, mapped, value));
                    }
                }
            }
            let mut scalar_tb = AsyncTestbench::new(latch_netlist, &library, config);
            scalar_tb.watch_named(&watch);
            let scalar_run = scalar_tb.run(duration, cycles, &bundle.schedule, &inputs);
            assert_eq!(
                packed_run.lane(lane),
                scalar_run,
                "async lane {lane} under {protocol:?} must be bit-identical to the scalar kernel"
            );
        }
    }
}

/// One deterministic full-width case: all 64 lanes live, no masked tail —
/// exercises the `lane_mask == !0` path the random cases (lanes <= 8)
/// never reach.
#[test]
fn packed_sync_full_64_lane_word_is_golden() {
    let netlist = random_netlist(42, 6, 24);
    let library = CellLibrary::generic_90nm();
    let config = SimConfig::default();
    let seeds = lane_seeds(0xfeed, MAX_LANES);
    let watch = ["in0", "ff0_q", "g0_y"];
    assert_sync_lanes_golden(&netlist, &library, config, 10, 4_000.0, &seeds, &watch);
}
