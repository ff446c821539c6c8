//! Differential suite for the packed-space flow-equivalence comparison.
//!
//! `verify_flow_equivalence_packed_with_parts` compares campaign lanes
//! straight from the packed capture streams: one `diff_mask` per capture
//! position covers every lane, and per-lane streams are built only when a
//! capture's lane mask differs from the live lanes. This suite checks each
//! lane's verdict (mismatching registers, positions and values, missing
//! registers, compared values) and compared-cycle count against an oracle
//! that builds both runs' lanes with `PackedSimRun::lane`, renames the
//! master-latch streams to their flip-flop names and runs
//! `FlowEquivalence::compare_prefix`. It covers random circuits, all three
//! protocols and 1, 7 and 64 lanes, with three kinds of synchronous
//! reference:
//!
//! * simulated from the campaign's own stimulus;
//! * simulated from other lane seeds, so lanes mismatch at different
//!   positions with different values;
//! * driven by a clock that skips edges in some lanes, so captures carry
//!   non-uniform lane masks and the per-lane fallback runs.
//!
//! It also pins the store weight of a packed run to the summed weights of
//! its lanes' scalar runs, with and without watched nets.

use desync_circuits::random::RandomCircuitConfig;
use desync_core::verify::sim_config_from;
use desync_core::{
    packed_sync_reference_run_with_model, verify_flow_equivalence_packed_with_parts, DesyncDesign,
    DesyncFlow, DesyncOptions, MultiSeedReport, Protocol, Weigh,
};
use desync_mg::{FlowEquivalence, FlowTrace};
use desync_netlist::{CellLibrary, NetId, Netlist, Value};
use desync_sim::{
    AsyncBench, CompiledModel, PackedSimRun, PackedValue, PackedVectorSource, SimConfig, Simulator,
    SyncBench, MAX_LANES,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const LANE_COUNTS: [usize; 3] = [1, 7, MAX_LANES];

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

fn desynchronize(netlist: &Netlist, library: &CellLibrary, protocol: Protocol) -> DesyncDesign {
    DesyncFlow::new(
        netlist,
        library,
        DesyncOptions::default().with_protocol(protocol),
    )
    .expect("valid options")
    .design()
    .expect("desynchronization")
}

/// The packed synchronous reference run of `netlist` at `design`'s clock
/// period, over a private compile of its simulation model.
fn packed_reference(
    netlist: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    cycles: usize,
    stimulus: &PackedVectorSource,
) -> PackedSimRun {
    let model = Arc::new(CompiledModel::compile(
        netlist,
        library,
        sim_config_from(&design.options().timing),
    ));
    packed_sync_reference_run_with_model(
        netlist,
        &model,
        design.synchronous_period_ps(),
        cycles,
        stimulus,
    )
    .expect("single clock")
}

/// The desynchronized side of a packed co-simulation, driven the way the
/// campaign check drives it: the control model's enable schedule, and
/// input vector *k* retimed to the *k*-th capture of the input-fed master
/// latches.
fn async_packed_run(
    original: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    stimulus: &PackedVectorSource,
    cycles: usize,
) -> PackedSimRun {
    let bundle = design.enable_schedule(cycles + 2, design.synchronous_period_ps() + 1_000.0);
    let latch_netlist = design.latch_netlist();
    let mut inputs = Vec::new();
    for (k, &t) in bundle.input_vector_times.iter().enumerate().take(cycles) {
        for (net, value) in stimulus.packed_vector_for(k) {
            if let Some(mapped) = latch_netlist.find_net_symbol(original.net(net).name) {
                inputs.push((t, mapped, value));
            }
        }
    }
    let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
    AsyncBench::<PackedValue>::new(
        latch_netlist,
        library,
        sim_config_from(&design.options().timing),
        stimulus.lanes(),
    )
    .run(duration, cycles, &bundle.schedule, &inputs)
}

/// The per-lane oracle: both lanes extracted to scalar runs, master-latch
/// streams renamed to their flip-flop names, compared on the common prefix
/// capped by `cycles`.
fn oracle(
    design: &DesyncDesign,
    sync_run: &PackedSimRun,
    async_run: &PackedSimRun,
    cycles: usize,
    lane: usize,
) -> (FlowEquivalence, usize) {
    let sync_trace = sync_run.lane(lane).flow_trace;
    let async_trace = async_run.lane(lane).flow_trace;
    let mut mapped = FlowTrace::new();
    for pair in &design.latch_design().pairs {
        if let Some(stream) = async_trace.stream(pair.master.as_str()) {
            mapped.extend_stream(pair.register_name.as_str(), stream.to_vec());
        }
    }
    let limit = cycles
        .min(mapped.min_stream_len())
        .min(sync_trace.min_stream_len());
    (
        FlowEquivalence::compare_prefix(&sync_trace, &mapped, limit),
        limit,
    )
}

/// Runs the packed check against `sync_run` and asserts every lane equals
/// the oracle, along with the event accounting of both runs.
fn assert_lanes_match_oracle(
    original: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    stimulus: &PackedVectorSource,
    cycles: usize,
    sync_run: &PackedSimRun,
) -> MultiSeedReport {
    let model = Arc::new(CompiledModel::compile(
        design.latch_netlist(),
        library,
        sim_config_from(&design.options().timing),
    ));
    let report = verify_flow_equivalence_packed_with_parts(
        original, design, stimulus, cycles, sync_run, &model,
    )
    .expect("co-simulation");
    let async_run = async_packed_run(original, design, library, stimulus, cycles);
    assert_eq!(report.async_word_events, async_run.word_committed_events);
    assert_eq!(report.async_lane_events, async_run.lane_committed_events());
    assert_eq!(report.sync_word_events, sync_run.word_committed_events);
    assert_eq!(report.sync_lane_events, sync_run.lane_committed_events());
    assert_eq!(report.lanes, stimulus.lanes());
    for lane in 0..stimulus.lanes() {
        let (equivalence, compared_cycles) = oracle(design, sync_run, &async_run, cycles, lane);
        assert_eq!(
            report.lane_equivalence[lane], equivalence,
            "lane {lane}: packed verdict differs from the per-lane oracle"
        );
        assert_eq!(report.compared_cycles[lane], compared_cycles, "lane {lane}");
    }
    report
}

/// A packed synchronous run whose clock skips rising edges in some lanes:
/// `SyncBench::run`'s packed drive script, except that a lane keeps the
/// clock low in the cycles picked by `(lane + 2 * cycle) % 5 == 3`. Its
/// flip-flops miss those captures, so with more than one lane the capture
/// lane masks differ from the live lanes.
fn gated_clock_sync_run(
    netlist: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    period_ps: f64,
    cycles: usize,
    stimulus: &PackedVectorSource,
) -> PackedSimRun {
    let lanes = stimulus.lanes();
    let clock = netlist.single_clock().expect("single clock");
    let mut sim = Simulator::<PackedValue>::new(netlist, library, config, lanes);
    sim.initialize_registers(Value::Zero);
    for &input in netlist.inputs() {
        if input != clock {
            sim.set(input, PackedValue::splat(Value::Zero));
        }
    }
    sim.set(clock, PackedValue::splat(Value::Zero));
    sim.settle(1_000_000);
    let start = sim.time();
    for cycle in 0..cycles {
        let base = start + (cycle as f64 + 1.0) * period_ps;
        let mut rising = PackedValue::splat(Value::One);
        for lane in 0..MAX_LANES {
            // Tail lanes replicate the last live lane.
            if (lane.min(lanes - 1) + 2 * cycle) % 5 == 3 {
                rising.set_lane(lane, Value::Zero);
            }
        }
        sim.schedule(clock, rising, base);
        sim.schedule(
            clock,
            PackedValue::splat(Value::Zero),
            base + period_ps * 0.5,
        );
        for (net, value) in stimulus.packed_vector_for(cycle) {
            sim.schedule(net, value, base + period_ps * 0.05);
        }
        sim.run_until(base + period_ps - 1.0);
    }
    sim.run_until(start + (cycles as f64 + 1.0) * period_ps);
    sim.into_run(cycles)
}

/// The store weight of `run` equals the summed weights of its lanes'
/// scalar runs.
fn assert_weight_is_lane_sum(run: &PackedSimRun) {
    let lanes: usize = (0..run.lanes()).map(|lane| run.lane(lane).weight()).sum();
    assert_eq!(run.weight(), lanes.max(1));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Matched and mismatched references: every lane's packed verdict
    /// equals the per-lane oracle.
    #[test]
    fn packed_verdicts_match_per_lane_oracle(
        seed in 0u64..400,
        flip_flops in 2usize..9,
        gates in 5usize..30,
        protocol_idx in 0usize..3,
        lanes_idx in 0usize..3,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let design = desynchronize(&netlist, &library, Protocol::all()[protocol_idx]);
        let lanes = LANE_COUNTS[lanes_idx];
        let cycles = 10;
        let nets = data_inputs(&netlist);
        let stimulus = PackedVectorSource::pseudo_random(nets.clone(), &lane_seeds(seed, lanes));
        let other = PackedVectorSource::pseudo_random(nets, &lane_seeds(seed ^ 0xbad5eed, lanes));
        for reference_stimulus in [&stimulus, &other] {
            let sync_run = packed_reference(&netlist, &design, &library, cycles, reference_stimulus);
            assert!(sync_run.streams().iter().all(|s| s.is_uniform(sync_run.lane_mask())));
            assert_weight_is_lane_sum(&sync_run);
            assert_lanes_match_oracle(&netlist, &design, &library, &stimulus, cycles, &sync_run);
        }
    }

    /// A reference whose clock skips edges per lane: non-uniform capture
    /// masks send the check down the per-lane fallback, which must still
    /// equal the oracle.
    #[test]
    fn non_uniform_capture_masks_match_per_lane_oracle(
        seed in 0u64..400,
        flip_flops in 2usize..9,
        gates in 5usize..30,
        protocol_idx in 0usize..3,
        lanes_idx in 0usize..3,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let design = desynchronize(&netlist, &library, Protocol::all()[protocol_idx]);
        let lanes = LANE_COUNTS[lanes_idx];
        let cycles = 10;
        let stimulus =
            PackedVectorSource::pseudo_random(data_inputs(&netlist), &lane_seeds(seed, lanes));
        let sync_run = gated_clock_sync_run(
            &netlist,
            &library,
            sim_config_from(&design.options().timing),
            design.synchronous_period_ps(),
            cycles,
            &stimulus,
        );
        let uniform = sync_run.streams().iter().all(|s| s.is_uniform(sync_run.lane_mask()));
        assert_eq!(uniform, lanes == 1, "only a multi-lane gated clock splits capture masks");
        assert_weight_is_lane_sum(&sync_run);
        assert_lanes_match_oracle(&netlist, &design, &library, &stimulus, cycles, &sync_run);
    }
}

/// References simulated from other seeds make the 64 lanes fail in
/// different ways: one register mismatches first at different positions in
/// different lanes, with different values — and each lane still equals the
/// oracle.
#[test]
fn mismatched_references_differ_from_lane_to_lane() {
    let netlist = random_netlist(42, 6, 24);
    let library = CellLibrary::generic_90nm();
    let design = desynchronize(&netlist, &library, Protocol::default());
    let cycles = 12;
    let nets = data_inputs(&netlist);
    let stimulus = PackedVectorSource::pseudo_random(nets.clone(), &lane_seeds(7, MAX_LANES));
    let other = PackedVectorSource::pseudo_random(nets, &lane_seeds(0xbad5eed, MAX_LANES));
    let sync_run = packed_reference(&netlist, &design, &library, cycles, &other);
    let report =
        assert_lanes_match_oracle(&netlist, &design, &library, &stimulus, cycles, &sync_run);
    assert!(report.equivalent_lanes() < MAX_LANES);
    let mismatches: Vec<_> = report
        .lane_equivalence
        .iter()
        .flat_map(|eq| &eq.mismatches)
        .collect();
    let positions: BTreeSet<(&str, usize)> = mismatches
        .iter()
        .map(|m| (m.register.as_str(), m.position))
        .collect();
    let registers: BTreeSet<&str> = positions.iter().map(|&(register, _)| register).collect();
    let values: BTreeSet<(Option<u64>, Option<u64>)> = mismatches
        .iter()
        .map(|m| (m.reference, m.checked))
        .collect();
    assert!(
        positions.len() > registers.len(),
        "every register mismatches at one position in all lanes: {positions:?}"
    );
    assert!(values.len() > 1, "every mismatch reads {values:?}");
}

/// A zero-cycle reference captures nothing while the desynchronized run's
/// master latches still capture: every register is missing from one side,
/// in every lane, exactly as the oracle reports it.
#[test]
fn empty_reference_reports_every_register_missing() {
    let netlist = random_netlist(42, 6, 24);
    let library = CellLibrary::generic_90nm();
    let design = desynchronize(&netlist, &library, Protocol::default());
    let stimulus =
        PackedVectorSource::pseudo_random(data_inputs(&netlist), &lane_seeds(5, MAX_LANES));
    let sync_run = packed_reference(&netlist, &design, &library, 0, &stimulus);
    assert!(sync_run.streams().is_empty());
    let report = assert_lanes_match_oracle(&netlist, &design, &library, &stimulus, 0, &sync_run);
    for equivalence in &report.lane_equivalence {
        assert_eq!(equivalence.missing_registers.len(), 6);
        assert!(equivalence.mismatches.is_empty());
    }
}

/// The store weight of packed runs, synchronous and desynchronized, with
/// and without watched nets, equals the summed weights of their lanes: the
/// store's capacity accounting does not move when runs stay packed.
#[test]
fn packed_run_weight_is_the_sum_of_lane_weights() {
    let netlist = random_netlist(42, 6, 24);
    let library = CellLibrary::generic_90nm();
    let config = SimConfig::default();
    let design = desynchronize(&netlist, &library, Protocol::default());
    let latch_netlist = design.latch_netlist();
    let latch_watch: Vec<String> = latch_netlist
        .inputs()
        .iter()
        .take(3)
        .map(|&n| latch_netlist.net(n).name.to_string())
        .collect();
    let latch_watch: Vec<&str> = latch_watch.iter().map(String::as_str).collect();
    for lanes in LANE_COUNTS {
        let stimulus =
            PackedVectorSource::pseudo_random(data_inputs(&netlist), &lane_seeds(3, lanes));
        for watched in [false, true] {
            let mut sync_tb = SyncBench::<PackedValue>::new(&netlist, &library, config, lanes)
                .expect("single clock");
            if watched {
                sync_tb.watch_named(&["in0", "ff0_q", "g0_y"]);
            }
            let sync_run = sync_tb.run(10, 4_000.0, &stimulus);
            assert_eq!(sync_run.lane_waveform_changes() > 0, watched);
            assert_weight_is_lane_sum(&sync_run);

            let bundle = design.enable_schedule(12, 5_000.0);
            let mut async_tb =
                AsyncBench::<PackedValue>::new(latch_netlist, &library, config, lanes);
            if watched {
                async_tb.watch_named(&latch_watch);
            }
            let async_run = async_tb.run(bundle.horizon_ps + 1_000.0, 10, &bundle.schedule, &[]);
            assert_eq!(async_run.lane_waveform_changes() > 0, watched);
            assert_weight_is_lane_sum(&async_run);
        }
    }
}
