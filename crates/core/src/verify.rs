//! Flow-equivalence verification: gate-level co-simulation of the original
//! synchronous netlist and its desynchronized counterpart, followed by a
//! comparison of the per-register capture streams.
//!
//! Flow equivalence is the correctness criterion of the paper: for every
//! register, the sequence of values stored into it must be identical in the
//! two executions, even though the storing times differ. Here the original
//! flip-flop `r` is compared against the master latch `r__m` of the
//! desynchronized datapath — the master latch plays exactly the role of the
//! flip-flop's input edge.

use crate::flow::DesyncDesign;
use desync_mg::flow::FlowMismatch;
use desync_mg::{FlowEquivalence, FlowTrace};
use desync_netlist::{Netlist, Value};
use desync_sim::{
    value_to_word, AsyncBench, CompiledModel, Lanes, PackedSimRun, PackedStream, PackedValue,
    PackedVectorSource, SimConfig, SimRun, SyncBench, VectorSource,
};
use desync_sta::TimingConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of a flow-equivalence check, together with the two underlying
/// simulation runs (so callers can also extract activity for power
/// comparisons without re-simulating).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceReport {
    /// The stream comparison verdict.
    pub equivalence: FlowEquivalence,
    /// Number of capture values compared per register.
    pub compared_cycles: usize,
    /// The synchronous simulation run.
    pub sync_run: SimRun,
    /// The desynchronized simulation run.
    pub async_run: SimRun,
}

impl EquivalenceReport {
    /// Whether the two executions are flow equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.equivalence.is_equivalent()
    }

    /// The divergence window of a non-equivalent report: the earliest
    /// capture index at which any register's streams disagree, together
    /// with the sorted set of diverging registers. `None` when the report
    /// is equivalent (or the only failures are missing registers, which
    /// have no position).
    ///
    /// This is the evidence a root-cause investigation starts from — e.g.
    /// the pinned DLX/non-overlapping finding records *where* the program
    /// counter first departs from the synchronous reference.
    pub fn divergence(&self) -> Option<DivergenceWindow> {
        divergence_of(&self.equivalence)
    }
}

/// The divergence window of one [`FlowEquivalence`] verdict (see
/// [`EquivalenceReport::divergence`]).
fn divergence_of(equivalence: &FlowEquivalence) -> Option<DivergenceWindow> {
    let mismatches = &equivalence.mismatches;
    let first_cycle = mismatches.iter().map(|m| m.position).min()?;
    let mut registers: Vec<String> = mismatches.iter().map(|m| m.register.clone()).collect();
    registers.sort();
    registers.dedup();
    Some(DivergenceWindow {
        first_cycle,
        registers,
    })
}

/// Where a non-equivalent co-simulation first departs from the synchronous
/// reference, see [`EquivalenceReport::divergence`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceWindow {
    /// The earliest capture index with a disagreement (first divergent
    /// cycle across all registers).
    pub first_cycle: usize,
    /// The registers whose capture streams diverge, sorted by name.
    pub registers: Vec<String>,
}

impl crate::store::Weigh for SimRun {
    /// Weight of a cached synchronous reference run: the retained memory is
    /// dominated by the capture streams and recorded waveforms, so weigh
    /// one unit per captured value and waveform change.
    fn weight(&self) -> usize {
        self.flow_trace.total_values()
            + self
                .waveforms
                .iter()
                .map(|(_, wave)| wave.len())
                .sum::<usize>()
            + self.cycles
    }
}

impl crate::store::Weigh for CompiledModel {
    /// Weight of a cached compiled simulation model: its flat-array
    /// footprint (CSR entries, pin lists, delays).
    fn weight(&self) -> usize {
        self.footprint()
    }
}

/// Builds the [`SimConfig`] matching a timing configuration, so STA, the
/// control model and the simulator agree on delays.
pub fn sim_config_from(timing: &TimingConfig) -> SimConfig {
    SimConfig {
        wire_delay_per_fanout_ps: timing.wire_delay_per_fanout_ps,
        clk_to_q_ps: timing.clk_to_q_ps,
        latch_d_to_q_ps: timing.latch_d_to_q_ps,
    }
}

/// Runs the synchronous reference side of a flow-equivalence check over a
/// compiled simulation model of `original`: `cycles` clock cycles at
/// `period_ps` under `stimulus`.
///
/// The result is a pure function of the model's compile inputs
/// (`original`, library, [`SimConfig`]), `period_ps`, `cycles` and
/// `stimulus` — the simulator is deterministic — which is what makes it
/// cacheable across knob sweeps: protocol and margin changes alter only
/// the desynchronized side, so [`DesyncFlow`](crate::DesyncFlow) keys its
/// stored reference runs on exactly those inputs. Repeated runs over one
/// design (distinct stimuli or cycle counts) share the model.
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn sync_reference_run_with_model(
    original: &Netlist,
    model: &Arc<CompiledModel>,
    period_ps: f64,
    cycles: usize,
    stimulus: &VectorSource,
) -> Result<SimRun, desync_netlist::NetlistError> {
    sync_run::<Value>(original, model, period_ps, cycles, stimulus)
}

/// The synchronous reference run at lane width `L` over a compiled model of
/// `original`, with as many lanes as `stimulus` carries.
fn sync_run<L: Lanes>(
    original: &Netlist,
    model: &Arc<CompiledModel>,
    period_ps: f64,
    cycles: usize,
    stimulus: &L::Source,
) -> Result<L::Run, desync_netlist::NetlistError> {
    let lanes = L::source_lanes(stimulus);
    let sync_tb = SyncBench::<L>::with_lanes(original, Arc::clone(model), lanes)?;
    Ok(sync_tb.run(cycles, period_ps, stimulus))
}

/// Checks flow equivalence of the synchronous netlist and its
/// desynchronized design on the same input stream over `cycles` captures,
/// given the synchronous reference run and a compiled model of the
/// desynchronized datapath. This is the scalar check behind
/// [`DesyncFlow::verified`](crate::DesyncFlow::verified), which sources
/// both parts from its store.
///
/// The desynchronized run uses the latch-enable schedule derived from the
/// timed control model, with the environment applying input vector *k*
/// when its slave opens for the *k*-th time, after every input-fed master
/// latch captured item *k*. Every
/// point of a protocol × margin sweep binds its enable schedule onto one
/// shared [`CompiledModel`] instead of recompiling the latch netlist.
///
/// `sync_run` must come from [`sync_reference_run_with_model`] at the
/// design's STA clock period, and `async_model` must be compiled from
/// `design.latch_netlist()`; both models under [`sim_config_from`] of the
/// design's timing options.
///
/// # Panics
///
/// Panics if `sync_run` covers a different number of cycles than `cycles`
/// — the one key component a [`SimRun`] carries (a mismatched reference
/// would otherwise silently shrink the compared prefix and could report
/// equivalence over fewer captures than requested) — or if `async_model`
/// was compiled from a different netlist structure.
pub fn verify_flow_equivalence_with_parts(
    original: &Netlist,
    design: &DesyncDesign,
    stimulus: &VectorSource,
    cycles: usize,
    sync_run: SimRun,
    async_model: &Arc<CompiledModel>,
) -> Result<EquivalenceReport, desync_netlist::NetlistError> {
    assert_eq!(
        sync_run.cycles, cycles,
        "sync reference run covers {} cycles but the equivalence check asked for {cycles}; \
         compute the reference with the same cycle count (see sync_reference_run_with_model)",
        sync_run.cycles,
    );

    let async_run = async_run::<Value>(original, design, stimulus, cycles, async_model);
    let (equivalence, compared_cycles) =
        compare_renamed(design, &sync_run.flow_trace, &async_run.flow_trace, cycles);
    Ok(EquivalenceReport {
        equivalence,
        compared_cycles,
        sync_run,
        async_run,
    })
}

/// The desynchronized run at lane width `L`: enables from the control
/// model, inputs applied at the environment controller's slave openings.
///
/// The schedule starts only after the simulator has had one full
/// synchronous period to settle the combinational logic from the reset
/// state, so no enable event can race the initialization wave. The enable
/// schedule and the input vector times are stimulus-independent; only the
/// input payloads widen with `L`.
fn async_run<L: Lanes>(
    original: &Netlist,
    design: &DesyncDesign,
    stimulus: &L::Source,
    cycles: usize,
    async_model: &Arc<CompiledModel>,
) -> L::Run {
    let start_offset = design.synchronous_period_ps() + 1_000.0;
    let bundle = design.enable_schedule(cycles + 2, start_offset);
    let latch_netlist = design.latch_netlist();
    let mut inputs = Vec::new();
    // Map the original primary-input net names onto the latch netlist.
    for (k, &t) in bundle.input_vector_times.iter().enumerate().take(cycles) {
        for (net, value) in L::vector_for(stimulus, k) {
            if let Some(mapped) = latch_netlist.find_net_symbol(original.net(net).name) {
                inputs.push((t, mapped, value));
            }
        }
    }
    let lanes = L::source_lanes(stimulus);
    let async_tb = AsyncBench::<L>::with_lanes(latch_netlist, Arc::clone(async_model), lanes);
    let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
    async_tb.run(duration, cycles, &bundle.schedule, &inputs)
}

/// Compares one execution pair: renames the master-latch streams of
/// `async_trace` back to their flip-flop names (one stream move per
/// register) and compares them against `sync_trace` on the common prefix,
/// capped by the requested cycle count. Returns the verdict and the number
/// of values compared per register.
fn compare_renamed(
    design: &DesyncDesign,
    sync_trace: &FlowTrace,
    async_trace: &FlowTrace,
    cycles: usize,
) -> (FlowEquivalence, usize) {
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
        FlowEquivalence::compare_prefix(sync_trace, &mapped, limit),
        limit,
    )
}

/// The outcome of a multi-seed (packed) flow-equivalence campaign point:
/// one per-lane verdict for each stimulus seed, plus the word- and
/// lane-level event accounting of the two packed runs.
///
/// The verdicts are computed in packed space, straight from the packed
/// capture streams, and each equals the verdict of a scalar
/// [`DesyncFlow::verified`](crate::DesyncFlow::verified) with that lane's
/// stimulus: same mismatches
/// (registers in name order, positions, values), missing registers and
/// compared values. Unlike [`EquivalenceReport`] the report does not retain
/// the simulation runs; a lane's scalar [`SimRun`] exists only if a caller
/// builds it from a [`PackedSimRun`] with [`PackedSimRun::lane`]. Lane
/// order follows the stimulus lane order, so verdicts merge
/// deterministically regardless of worker scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSeedReport {
    /// Number of stimulus lanes verified (1..=64).
    pub lanes: usize,
    /// Per-lane stream-comparison verdicts, in stimulus lane order.
    pub lane_equivalence: Vec<FlowEquivalence>,
    /// Per-lane number of capture values compared per register.
    pub compared_cycles: Vec<usize>,
    /// Word events committed by the packed synchronous reference run.
    pub sync_word_events: usize,
    /// Scalar-equivalent events of the synchronous side (sum over lanes).
    pub sync_lane_events: usize,
    /// Word events committed by the packed desynchronized run.
    pub async_word_events: usize,
    /// Scalar-equivalent events of the desynchronized side (sum over lanes).
    pub async_lane_events: usize,
}

impl MultiSeedReport {
    /// Number of lanes whose executions are flow equivalent.
    pub fn equivalent_lanes(&self) -> usize {
        self.lane_equivalence
            .iter()
            .filter(|eq| eq.is_equivalent())
            .count()
    }

    /// Whether every lane is flow equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.equivalent_lanes() == self.lanes
    }

    /// Whether lane `lane` is flow equivalent.
    pub fn lane_is_equivalent(&self, lane: usize) -> bool {
        self.lane_equivalence[lane].is_equivalent()
    }

    /// The divergence window of lane `lane`, `None` when it is equivalent
    /// (see [`EquivalenceReport::divergence`]).
    pub fn lane_divergence(&self, lane: usize) -> Option<DivergenceWindow> {
        divergence_of(&self.lane_equivalence[lane])
    }

    /// Total word events committed across both packed runs (the work the
    /// kernel actually did).
    pub fn word_events(&self) -> usize {
        self.sync_word_events + self.async_word_events
    }

    /// Total scalar-equivalent lane events across both packed runs (what an
    /// equivalent all-scalar campaign would have committed).
    pub fn lane_events(&self) -> usize {
        self.sync_lane_events + self.async_lane_events
    }
}

impl crate::store::Weigh for PackedSimRun {
    /// Weight of a cached packed reference run: the sum of the weights its
    /// live lanes have as scalar [`SimRun`]s, counted in packed space.
    fn weight(&self) -> usize {
        (self.lane_captured_values() + self.lane_waveform_changes() + self.cycles * self.lanes())
            .max(1)
    }
}

/// The packed counterpart of [`sync_reference_run_with_model`]: one packed
/// synchronous run carrying every stimulus lane, over the *same* compiled
/// models the scalar path caches. Each lane ([`PackedSimRun::lane`]) is
/// bit-identical to [`sync_reference_run_with_model`] with that lane's
/// stimulus.
///
/// # Errors
///
/// [`NetlistError::ClockError`](desync_netlist::NetlistError::ClockError)
/// if `original` does not have exactly one clock net.
pub fn packed_sync_reference_run_with_model(
    original: &Netlist,
    model: &Arc<CompiledModel>,
    period_ps: f64,
    cycles: usize,
    stimulus: &PackedVectorSource,
) -> Result<PackedSimRun, desync_netlist::NetlistError> {
    sync_run::<PackedValue>(original, model, period_ps, cycles, stimulus)
}

/// The multi-seed packed counterpart of
/// [`verify_flow_equivalence_with_parts`]: verifies all stimulus lanes of
/// `stimulus` in one packed co-simulation pass — two packed runs instead of
/// `2 × lanes` scalar runs — and reports one per-lane verdict each. This is
/// the check behind [`DesyncFlow::verify_packed`](crate::DesyncFlow::verify_packed),
/// which sources the reference run and the model from its store.
///
/// Each lane's verdict is bit-identical to the scalar check with that
/// lane's stimulus. `sync_run` must come from
/// [`packed_sync_reference_run_with_model`] at the design's STA clock
/// period, and `async_model` must be compiled from `design.latch_netlist()`;
/// both models under [`sim_config_from`] of the design's timing options.
///
/// The lanes are compared in packed space: each sync-register /
/// master-latch stream pair is visited once, and one
/// [`Lanes::diff_mask`] per capture position finds every lane that
/// mismatches there, so a point costs O(registers × captures) word
/// operations and no per-lane extraction. Only if a capture was taken by
/// some lanes but not all (a data-dependent capturing edge) does the check
/// fall back to per-lane streams ([`PackedSimRun::lane`]) and
/// [`FlowEquivalence::compare_prefix`].
///
/// # Panics
///
/// Panics if `sync_run` covers a different lane or cycle count than
/// `stimulus` and `cycles`, or if `async_model` was compiled from a
/// different netlist structure.
pub fn verify_flow_equivalence_packed_with_parts(
    original: &Netlist,
    design: &DesyncDesign,
    stimulus: &PackedVectorSource,
    cycles: usize,
    sync_run: &PackedSimRun,
    async_model: &Arc<CompiledModel>,
) -> Result<MultiSeedReport, desync_netlist::NetlistError> {
    assert_eq!(
        sync_run.lanes(),
        stimulus.lanes(),
        "packed sync reference carries {} lanes but the stimulus has {}",
        sync_run.lanes(),
        stimulus.lanes(),
    );
    assert_eq!(
        sync_run.cycles, cycles,
        "sync reference run covers {} cycles but the equivalence check asked for {cycles}; \
         compute the reference with the same cycle count (see packed_sync_reference_run_with_model)",
        sync_run.cycles,
    );

    let async_run = async_run::<PackedValue>(original, design, stimulus, cycles, async_model);
    let (lane_equivalence, compared_cycles) =
        compare_packed_lanes(design, sync_run, &async_run, cycles);
    Ok(MultiSeedReport {
        lanes: stimulus.lanes(),
        lane_equivalence,
        compared_cycles,
        sync_word_events: sync_run.word_committed_events,
        sync_lane_events: sync_run.lane_committed_events(),
        async_word_events: async_run.word_committed_events,
        async_lane_events: async_run.lane_committed_events(),
    })
}

/// Per-lane verdicts and compared-cycle counts of a packed co-simulation,
/// equal to [`compare_renamed`] over every lane's extracted flow traces.
fn compare_packed_lanes(
    design: &DesyncDesign,
    sync_run: &PackedSimRun,
    async_run: &PackedSimRun,
    cycles: usize,
) -> (Vec<FlowEquivalence>, Vec<usize>) {
    let live = sync_run.lane_mask();
    // Master-latch streams under their flip-flop names (one pair per
    // flip-flop, so the names are distinct), sorted by name.
    let mut mapped: Vec<(&str, &PackedStream)> = design
        .latch_design()
        .pairs
        .iter()
        .filter_map(|pair| {
            let stream = async_run.stream(pair.master.as_str())?;
            Some((pair.register_name.as_str(), stream))
        })
        .collect();
    mapped.sort_unstable_by(|a, b| a.0.cmp(b.0));
    // Lanes line up position by position only if every lane took every
    // capture.
    let aligned = sync_run
        .streams()
        .iter()
        .chain(mapped.iter().map(|&(_, stream)| stream))
        .all(|stream| stream.is_uniform(live));
    if !aligned {
        return (0..sync_run.lanes())
            .map(|lane| {
                let (sync_lane, async_lane) = (sync_run.lane(lane), async_run.lane(lane));
                compare_renamed(
                    design,
                    &sync_lane.flow_trace,
                    &async_lane.flow_trace,
                    cycles,
                )
            })
            .unzip();
    }

    // Every lane sees the same stream lengths, hence the same prefix limit,
    // compared-value count and missing registers. No stream is shorter than
    // the limit, so each register pair compares exactly `limit` positions.
    let shortest_mapped = mapped.iter().map(|(_, s)| s.captures.len()).min();
    let shortest_sync = sync_run.streams().iter().map(|s| s.captures.len()).min();
    let limit = cycles
        .min(shortest_mapped.unwrap_or(0))
        .min(shortest_sync.unwrap_or(0));
    let mut mismatches: Vec<Vec<FlowMismatch>> = vec![Vec::new(); sync_run.lanes()];
    let mut missing = Vec::new();
    let mut compared = 0;
    for reference in sync_run.streams() {
        let name = reference.register.as_str();
        let Ok(at) = mapped.binary_search_by(|&(mapped_name, _)| mapped_name.cmp(name)) else {
            missing.push(reference.register.clone());
            continue;
        };
        let checked = mapped[at].1;
        compared += limit;
        // Lanes still without a mismatch on this register (the first
        // mismatch per register is the one reported).
        let mut pending = live;
        for (position, (&(_, want), &(_, got))) in reference
            .captures
            .iter()
            .zip(&checked.captures)
            .take(limit)
            .enumerate()
        {
            let mut diff = want.diff_mask(got) & pending;
            pending &= !diff;
            while diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                mismatches[lane].push(FlowMismatch {
                    register: reference.register.clone(),
                    position,
                    reference: Some(value_to_word(want.lane(lane))),
                    checked: Some(value_to_word(got.lane(lane))),
                });
                diff &= diff - 1;
            }
            if pending == 0 {
                break;
            }
        }
    }
    for &(name, _) in &mapped {
        if sync_run.stream(name).is_none() {
            missing.push(name.to_string());
        }
    }
    missing.sort();
    let compared_cycles = vec![limit; sync_run.lanes()];
    let lane_equivalence = mismatches
        .into_iter()
        .map(|mismatches| FlowEquivalence {
            mismatches,
            missing_registers: missing.clone(),
            compared_values: compared,
        })
        .collect();
    (lane_equivalence, compared_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DesyncOptions;
    use crate::pipeline::DesyncFlow;
    use crate::Protocol;
    use desync_netlist::{CellKind, CellLibrary};

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    /// A 3-stage pipeline with an XOR mixing stage.
    fn pipeline() -> Netlist {
        let mut n = Netlist::new("pipe");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q0 = n.add_net("q0");
        let q1 = n.add_net("q1");
        let w0 = n.add_net("w0");
        let w1 = n.add_net("w1");
        let q2 = n.add_net("q2");
        let q3 = n.add_output("q3");
        n.add_dff("r0", a, clk, q0).unwrap();
        n.add_dff("r1", b, clk, q1).unwrap();
        n.add_gate("g0", CellKind::Xor, &[q0, q1], w0).unwrap();
        n.add_dff("r2", w0, clk, q2).unwrap();
        n.add_gate("g1", CellKind::Not, &[q2], w1).unwrap();
        n.add_dff("r3", w1, clk, q3).unwrap();
        n
    }

    /// A self-contained circuit (no data inputs): a 3-bit counter.
    fn counter() -> Netlist {
        let mut n = Netlist::new("cnt");
        let clk = n.add_input("clk");
        let q: Vec<_> = (0..3).map(|i| n.add_net(format!("q{i}"))).collect();
        // d0 = !q0; d1 = q1 ^ q0; d2 = q2 ^ (q1 & q0)
        let d0 = n.add_net("d0");
        let d1 = n.add_net("d1");
        let d2 = n.add_net("d2");
        let c01 = n.add_net("c01");
        n.add_gate("i0", CellKind::Not, &[q[0]], d0).unwrap();
        n.add_gate("x1", CellKind::Xor, &[q[1], q[0]], d1).unwrap();
        n.add_gate("a1", CellKind::And, &[q[1], q[0]], c01).unwrap();
        n.add_gate("x2", CellKind::Xor, &[q[2], c01], d2).unwrap();
        n.add_dff("cnt_ff[0]", d0, clk, q[0]).unwrap();
        n.add_dff("cnt_ff[1]", d1, clk, q[1]).unwrap();
        n.add_dff("cnt_ff[2]", d2, clk, q[2]).unwrap();
        for &qi in &q {
            n.mark_output(qi);
        }
        n
    }

    #[test]
    fn counter_is_flow_equivalent_without_stimulus() {
        let n = counter();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.set_verification(VectorSource::constant(vec![]), 20);
        let report = flow.verified().unwrap();
        assert!(report.is_equivalent(), "{}", report.equivalence);
        assert!(report.compared_cycles >= 15);
        assert!(report.sync_run.activity.total_transitions() > 0);
        assert!(report.async_run.activity.total_transitions() > 0);
    }

    #[test]
    fn pipeline_is_flow_equivalent_under_random_stimulus() {
        let n = pipeline();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        flow.set_verification(VectorSource::pseudo_random(vec![a, b], 7), 24);
        let report = flow.verified().unwrap();
        assert!(report.is_equivalent(), "{}", report.equivalence);
        assert!(report.compared_cycles >= 20);
    }

    #[test]
    fn pipeline_is_flow_equivalent_for_every_protocol() {
        let n = pipeline();
        let library = lib();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        flow.set_verification(
            VectorSource::sequence(vec![
                vec![(a, Value::One), (b, Value::Zero)],
                vec![(a, Value::Zero), (b, Value::One)],
                vec![(a, Value::One), (b, Value::One)],
            ]),
            18,
        );
        for &protocol in Protocol::all() {
            flow.set_protocol(protocol).unwrap();
            let report = flow.verified().unwrap();
            assert!(
                report.is_equivalent(),
                "protocol {protocol}: {}",
                report.equivalence
            );
        }
    }

    #[test]
    fn packed_multi_seed_matches_scalar_verdicts_per_lane() {
        let n = pipeline();
        let library = lib();
        let mut flow = DesyncFlow::new(&n, &library, DesyncOptions::default()).unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let seeds = [3u64, 5, 8, 13];
        let packed = PackedVectorSource::pseudo_random(vec![a, b], &seeds);
        let report = flow.verify_packed(&packed, 20).unwrap();
        assert_eq!(report.lanes, seeds.len());
        assert!(report.is_equivalent());
        assert!(report.word_events() > 0);
        assert!(report.lane_events() >= report.word_events());
        let mut sync_lane_events = 0;
        let mut async_lane_events = 0;
        for (lane, &seed) in seeds.iter().enumerate() {
            flow.set_verification(VectorSource::pseudo_random(vec![a, b], seed), 20);
            let scalar = flow.verified().unwrap();
            assert_eq!(
                report.lane_equivalence[lane], scalar.equivalence,
                "lane {lane}"
            );
            assert_eq!(report.compared_cycles[lane], scalar.compared_cycles);
            assert!(report.lane_is_equivalent(lane));
            assert!(report.lane_divergence(lane).is_none());
            sync_lane_events += scalar.sync_run.committed_events;
            async_lane_events += scalar.async_run.committed_events;
        }
        // The packed lane-event accounting is exactly what the scalar runs
        // would have committed, while the word-event work is far smaller.
        assert_eq!(report.sync_lane_events, sync_lane_events);
        assert_eq!(report.async_lane_events, async_lane_events);
        assert!(report.sync_word_events <= sync_lane_events);
        assert!(report.async_word_events <= async_lane_events);

        // Non-equivalent lanes too: the DLX under the non-overlapping
        // protocol diverges in its program counter (the finding pinned by
        // `dlx_verdict.rs`), and every lane's mismatches must equal its
        // scalar verdict.
        let dlx = desync_circuits::DlxConfig::default().generate().unwrap();
        let mut flow = DesyncFlow::new(
            &dlx,
            &library,
            DesyncOptions::default().with_protocol(Protocol::NonOverlapping),
        )
        .unwrap();
        let inputs: Vec<_> = dlx
            .inputs()
            .iter()
            .copied()
            .filter(|&net| dlx.net(net).name != "clk")
            .collect();
        let seeds: Vec<u64> = (0..8).map(|lane| 0xd1a0 + 17 * lane).collect();
        let packed = PackedVectorSource::pseudo_random(inputs.clone(), &seeds);
        let report = flow.verify_packed(&packed, 48).unwrap();
        assert_eq!(report.lanes, seeds.len());
        assert_eq!(report.equivalent_lanes(), 0);
        for (lane, &seed) in seeds.iter().enumerate() {
            flow.set_verification(VectorSource::pseudo_random(inputs.clone(), seed), 48);
            let scalar = flow.verified().unwrap();
            assert_eq!(
                report.lane_equivalence[lane], scalar.equivalence,
                "dlx lane {lane}"
            );
            assert_eq!(report.compared_cycles[lane], scalar.compared_cycles);
            assert_eq!(report.lane_divergence(lane), scalar.divergence());
        }
    }

    #[test]
    fn sim_config_matches_timing_options() {
        let n = counter();
        let library = lib();
        let design = DesyncFlow::new(&n, &library, DesyncOptions::default())
            .unwrap()
            .design()
            .unwrap();
        let cfg = sim_config_from(&design.options().timing);
        assert_eq!(cfg.latch_d_to_q_ps, design.options().timing.latch_d_to_q_ps);
        assert_eq!(cfg.clk_to_q_ps, design.options().timing.clk_to_q_ps);
    }
}
