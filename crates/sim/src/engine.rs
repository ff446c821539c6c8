//! The event-driven simulation kernel: one cursor, generic over lane width.
//!
//! A [`Simulator`] executes any [`Netlist`] — purely synchronous,
//! latch-based, or containing handshake-controller cells — with per-cell
//! propagation delays taken from a [`CellLibrary`] plus a linear wire-load
//! term. Each net carries one [`Lanes`] payload: a [`Value`] (one stimulus
//! per run) or a [`PackedValue`] of up to 64 independent stimulus lanes.
//! Both widths are monomorphizations of the one commit loop below. A cursor records:
//!
//! * per-lane switching-activity counters (for the power model), from
//!   which each lane's committed events follow (see [`Lanes::count`]),
//! * the change records of watched nets (recorded by [`NetId`] during the
//!   run; names are resolved once, by [`Simulator::into_run`]), and
//! * the list of register *captures* — the value latched by every flip-flop
//!   at each rising clock edge and by every latch at each closing enable
//!   edge, with the mask of lanes that saw the edge — from which the
//!   flow-equivalence traces are built.
//!
//! # Bit-identity contract
//!
//! Both widths run the one commit loop, so they share every scheduling
//! rule. An event is scheduled when *any* lane departs from its projected
//! value; on lanes where the payload equals the projected value the event
//! is invisible, exactly like the event a one-lane run would not have
//! scheduled. Under matched delays the schedule is stimulus-independent, so
//! each lane of a packed run observes exactly what a scalar run with that
//! lane's stimulus observes: the same captures, activity, waveforms and
//! committed events. The
//! property suite `desync-core/tests/sim_packed_golden.rs` pins this, and
//! `desync-core/tests/sim_golden.rs` pins the scalar width against a
//! straightforward reference kernel.
//!
//! # Kernel design
//!
//! The kernel is allocation-free on the hot path (after construction and
//! queue warm-up, committing an event allocates nothing), and the
//! structure-dependent half of construction is shareable:
//!
//! * **Compiled model + cursor split.** Everything derived from the netlist
//!   structure and the library — CSR topology, pin lists, per-cell delays,
//!   constant seeds, the register list — lives in an immutable
//!   [`CompiledModel`] built once by [`CompiledModel::compile`]. A
//!   `Simulator` is a cursor over an `Arc` of that model
//!   ([`Simulator::with_lanes`]): it owns only the per-run mutable state
//!   (net values, the event queue, counters, captures, the watch list),
//!   so a verification sweep re-binds schedules and stimuli onto one
//!   compiled model instead of recompiling topology per point.
//! * **Integer time keys.** Events are ordered by a `u64` key — the IEEE-754
//!   bit pattern of the (always non-negative, finite) f64 picosecond time.
//!   For non-negative finite doubles the bit pattern is order-isomorphic to
//!   the numeric value, so integer comparison gives a *total* order that is
//!   exactly the f64 order while converting back losslessly: event times are
//!   bit-identical to an f64 kernel, with none of the `partial_cmp`
//!   NaN-in-the-heap hazards. Non-finite times are rejected at the
//!   [`Simulator::schedule`] boundary.
//! * **Radix queue.** The pending-event set is a monotone radix queue
//!   (Ahuja, Mehlhorn, Orlin and Tarjan's radix heap) over those keys:
//!   65 buckets split by the highest bit in which a key differs from the
//!   last minimum taken, and a `u64` mask of the occupied ones. Event
//!   times never go backwards, so each move takes an event to a strictly
//!   lower bucket, and equal times pop in push order with no sequence
//!   number stored. A far-future event (e.g. an
//!   [`EnableSchedule`](crate::EnableSchedule) scheduled hundreds of
//!   cycles up front) simply waits in a high bucket.
//! * **CSR topology.** The net → reader-cells map and the per-cell input
//!   pin lists are flat compressed-sparse-row arrays (offset + index), so
//!   reacting to a committed event walks a contiguous slice instead of
//!   cloning a per-net `Vec`, and evaluating a cell gathers its input
//!   values into one reused scratch buffer instead of collecting a fresh
//!   `Vec` per evaluation.
//! * **Bitset watch list.** Whether a net is watched is one bit test; the
//!   changes of a watched net are appended to a dense per-net slot with no
//!   name lookup on the commit path.
//! * **Bit-sliced lane counters.** A packed event adds the lanes it
//!   toggled to the net's eight bit planes, one cache line, with eight
//!   word operations and no branch, so it costs no loop over its lanes
//!   (see the [packed counters](crate::packed#bit-plane-counters)).

use crate::activity::Activity;
use crate::harness::{value_to_word, SimRun};
use crate::model::CompiledModel;
use crate::packed::{live_mask, PackedValue};
use crate::stimulus::VectorSource;
use crate::waveform::{Waveform, WaveformSet};
use desync_mg::FlowTrace;
use desync_netlist::{value, CellId, CellKind, CellLibrary, NetId, Netlist, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Extra wire delay per fan-out sink, in picoseconds (matches the
    /// wire-load model used by the timing analyzer).
    pub wire_delay_per_fanout_ps: f64,
    /// Flip-flop clock-to-Q delay in picoseconds.
    pub clk_to_q_ps: f64,
    /// Latch data-to-Q delay (when transparent) in picoseconds.
    pub latch_d_to_q_ps: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            wire_delay_per_fanout_ps: 4.0,
            clk_to_q_ps: 110.0,
            latch_d_to_q_ps: 70.0,
        }
    }
}

impl SimConfig {
    /// The configuration as stable bit patterns, for use in content-addressed
    /// cache keys (see `desync-core`'s sync-reference-run cache).
    pub fn key_bits(&self) -> [u64; 3] {
        [
            self.wire_delay_per_fanout_ps.to_bits(),
            self.clk_to_q_ps.to_bits(),
            self.latch_d_to_q_ps.to_bits(),
        ]
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for desync_netlist::Value {}
    impl Sealed for crate::PackedValue {}
}

/// The payload one net carries in one run: how many stimulus lanes a
/// [`Simulator`] advances per committed event.
///
/// The trait is sealed. Its two impls are [`Value`] (one lane: the scalar
/// sweep) and [`PackedValue`] (up to 64 lanes in two bit-planes: the
/// packed campaign). Lane masks are `u64` words in which bit *i* stands for
/// lane *i*; a [`Value`] answers in bit 0. The kernel and both testbench
/// scripts are written once against these operations and monomorphized
/// per impl.
pub trait Lanes: sealed::Sealed + Copy + PartialEq + std::fmt::Debug {
    /// The per-cycle stimulus of a synchronous run at this width.
    type Source;
    /// A finished run at this width.
    type Run;
    /// The switching counters a cursor keeps at this width: each live
    /// lane's transition count per net, and what else it takes to derive
    /// each lane's committed events.
    type Counters: Clone + std::fmt::Debug;
    /// The most lanes one payload carries.
    const WIDTH: usize;

    /// The same scalar value in every lane.
    fn splat(value: Value) -> Self;
    /// Mask of lanes holding `One`.
    fn ones_mask(self) -> u64;
    /// Mask of lanes holding `Zero`.
    fn zeros_mask(self) -> u64;
    /// Mask of lanes holding `X`.
    fn x_mask(self) -> u64;
    /// Mask of lanes where `self` and `other` differ.
    fn diff_mask(self, other: Self) -> u64;
    /// Per-lane choice: lanes set in `mask` take `then`, the rest `other`.
    fn select(mask: u64, then: Self, other: Self) -> Self;
    /// Lane-wise [`value::evaluate`] of a combinational `kind`.
    fn evaluate(kind: CellKind, inputs: &[Self]) -> Self;
    /// Lane-wise [`value::evaluate_latch`].
    fn evaluate_latch(data: Self, enable: Self, stored: Self, transparent_high: bool) -> Self;
    /// Lane-wise [`value::evaluate_c_element`].
    fn evaluate_c_element(inputs: &[Self], previous: Self) -> Self;
    /// Number of live lanes `source` drives.
    fn source_lanes(source: &Self::Source) -> usize;
    /// Zeroed switching counters for `nets` nets and `lanes` live lanes.
    fn counters(nets: usize, lanes: usize) -> Self::Counters;
    /// Counts one committed change of `net`: the live lanes in `toggled`
    /// made a transition, and those in `x_exits` changed out of `X`, which
    /// is a committed event of the lane but no switching activity.
    fn count(counters: &mut Self::Counters, net: usize, toggled: u64, x_exits: u64);
    /// The assignments `source` applies in cycle `cycle` (0-based).
    fn vector_for(source: &Self::Source, cycle: usize) -> Vec<(NetId, Self)>;
    /// Moves the observables of a finished cursor into this width's run
    /// type; [`Simulator::into_run`] calls it.
    fn finish(sim: Simulator<'_, Self>, cycles: usize) -> Self::Run;
}

impl Lanes for Value {
    type Source = VectorSource;
    type Run = SimRun;
    /// One plain transition counter per net. A scalar run's committed
    /// events are the cursor's own count, so its `X` exits need no counter.
    type Counters = Vec<u64>;
    const WIDTH: usize = 1;

    fn splat(value: Value) -> Self {
        value
    }

    fn ones_mask(self) -> u64 {
        u64::from(self == Value::One)
    }

    fn zeros_mask(self) -> u64 {
        u64::from(self == Value::Zero)
    }

    fn x_mask(self) -> u64 {
        u64::from(self == Value::X)
    }

    fn diff_mask(self, other: Self) -> u64 {
        u64::from(self != other)
    }

    fn select(mask: u64, then: Self, other: Self) -> Self {
        if mask & 1 != 0 {
            then
        } else {
            other
        }
    }

    fn evaluate(kind: CellKind, inputs: &[Self]) -> Self {
        value::evaluate(kind, inputs)
    }

    fn evaluate_latch(data: Self, enable: Self, stored: Self, transparent_high: bool) -> Self {
        value::evaluate_latch(data, enable, stored, transparent_high)
    }

    fn evaluate_c_element(inputs: &[Self], previous: Self) -> Self {
        value::evaluate_c_element(inputs, previous)
    }

    fn source_lanes(_: &VectorSource) -> usize {
        1
    }

    fn counters(nets: usize, _: usize) -> Vec<u64> {
        vec![0; nets]
    }

    /// `toggled` is 0 or 1: a scalar mask answers in bit 0 only.
    fn count(counters: &mut Vec<u64>, net: usize, toggled: u64, _: u64) {
        counters[net] += toggled;
    }

    fn vector_for(source: &VectorSource, cycle: usize) -> Vec<(NetId, Self)> {
        source.vector_for(cycle)
    }

    /// Builds the [`SimRun`]: captures are grouped by cell id first (dense,
    /// chronological per cell), so each register's name is resolved and
    /// cloned exactly once instead of once per captured value.
    fn finish(sim: Simulator<'_, Self>, cycles: usize) -> SimRun {
        let netlist = sim.netlist;
        let mut per_cell: Vec<Vec<u64>> = vec![Vec::new(); netlist.num_cells()];
        for cap in &sim.captures {
            per_cell[cap.cell.index()].push(value_to_word(cap.value));
        }
        let mut flow_trace = FlowTrace::new();
        for (index, values) in per_cell.into_iter().enumerate() {
            if !values.is_empty() {
                let name = netlist.cell(CellId(index as u32)).name.to_string();
                flow_trace.extend_stream(name, values);
            }
        }
        let mut waveforms = WaveformSet::new();
        for (net, changes) in sim.waves {
            let mut wave = Waveform::new();
            for (time_ps, value) in changes {
                wave.push(time_ps, value);
            }
            waveforms.insert(netlist.net(net).name.to_string(), wave);
        }
        SimRun {
            flow_trace,
            activity: Activity {
                transitions: sim.counters,
                duration_ps: sim.time,
            },
            waveforms,
            cycles,
            duration_ps: sim.time,
            committed_events: sim.committed,
        }
    }
}

/// One register capture: the value stored into a sequential cell at a
/// capturing edge (clock rising edge for flip-flops, closing enable edge for
/// latches), with the mask of live lanes that saw the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Capture<L> {
    /// Simulation time of the capture, in picoseconds.
    pub time_ps: f64,
    /// The sequential cell that captured.
    pub cell: CellId,
    /// The captured value (meaningful on `lanes` only).
    pub value: L,
    /// Mask of live lanes that captured at this edge.
    pub lanes: u64,
}

/// A pending value change. `key` is the bit pattern of the non-negative f64
/// event time, so integer order is time order. Events carry no sequence
/// number: the queue pops equal keys in push order.
///
/// Generic over the payload `P`, which the queue never reads, so every
/// width pops events in the identical `(time, push order)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event<P> {
    pub(crate) key: u64,
    pub(crate) net: NetId,
    pub(crate) value: P,
}

impl<P> Event<P> {
    pub(crate) fn time_ps(&self) -> f64 {
        f64::from_bits(self.key)
    }
}

/// The bucket of a key whose bits differ from the floor in `diff`: 0 for
/// the floor itself, else one more than the index of the highest
/// differing bit.
fn radix_bucket(diff: u64) -> usize {
    (u64::BITS - diff.leading_zeros()) as usize
}

/// A monotone radix queue (the radix heap of Ahuja, Mehlhorn, Orlin and
/// Tarjan, J. ACM 37(2), 1990) over the `u64` time keys.
///
/// Invariants:
/// * every queued key is ≥ `floor`, the last minimum the queue
///   redistributed (the simulator never schedules into the past, and
///   [`RadixQueue::pop_until`] raises the floor only to a key it pops);
/// * bucket 0 holds the events whose key equals `floor`, in push order,
///   of which the first `head` have been popped;
/// * bucket `i ≥ 1` holds the events whose key first differs from `floor`
///   in bit `i − 1` (the highest differing bit), and bit `i − 1` of
///   `occupied` is set exactly when it is non-empty.
///
/// Equal keys always share a bucket, and redistribution empties one bucket
/// into lower, empty ones in order, so events with equal keys keep their
/// push order: the queue pops in `(key, push order)` order.
#[derive(Debug, Clone)]
pub(crate) struct RadixQueue<P> {
    buckets: [Vec<Event<P>>; 65],
    head: usize,
    occupied: u64,
    floor: u64,
}

impl<P: Copy> RadixQueue<P> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            occupied: 0,
            floor: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event<P>) {
        debug_assert!(
            event.key >= self.floor,
            "event key {:#x} below the queue floor {:#x}",
            event.key,
            self.floor
        );
        let index = radix_bucket(event.key ^ self.floor);
        self.buckets[index].push(event);
        if index != 0 {
            self.occupied |= 1 << (index - 1);
        }
    }

    /// Removes and returns the earliest event if its key is at most
    /// `limit`. When bucket 0 has drained, the lowest occupied bucket's
    /// minimum becomes the floor and its events move down, but only when
    /// that minimum is within `limit`: a refused pop moves nothing, so the
    /// floor never passes the simulation time a caller schedules at next.
    pub(crate) fn pop_until(&mut self, limit: u64) -> Option<Event<P>> {
        if self.head == self.buckets[0].len() {
            if self.occupied == 0 {
                return None;
            }
            let index = self.occupied.trailing_zeros() as usize + 1;
            let floor = (self.buckets[index].iter().map(|e| e.key).min())
                .expect("an occupied bucket holds an event");
            if floor > limit {
                return None;
            }
            self.floor = floor;
            self.occupied &= !(1 << (index - 1));
            self.buckets[0].clear();
            self.head = 0;
            let mut moving = std::mem::take(&mut self.buckets[index]);
            for event in moving.drain(..) {
                let to = radix_bucket(event.key ^ floor);
                self.buckets[to].push(event);
                if to != 0 {
                    self.occupied |= 1 << (to - 1);
                }
            }
            // Hand the emptied buffer back, so the bucket keeps its capacity.
            self.buckets[index] = moving;
        } else if self.floor > limit {
            return None;
        }
        let event = self.buckets[0][self.head];
        self.head += 1;
        Some(event)
    }
}

/// An event-driven gate-level simulator at lane width `L`: a per-run
/// *cursor* over a shared [`CompiledModel`] of one netlist.
///
/// See the [module documentation](self) for the kernel design and the
/// bit-identity contract between widths.
#[derive(Debug, Clone)]
pub struct Simulator<'a, L: Lanes> {
    pub(crate) netlist: &'a Netlist,
    /// The immutable structure half: topology, pin lists, delays. Shared
    /// across cursors (and across sweep points, via `desync-core`'s
    /// artifact store).
    model: Arc<CompiledModel>,
    pub(crate) lanes: usize,
    /// Mask of live lanes (`lanes` low bits); the tail lanes of a packed
    /// payload replicate the last live lane and are excluded from all
    /// per-lane accounting.
    lane_mask: u64,
    values: Vec<L>,
    /// The value most recently *scheduled* for each net (projected value).
    /// Cells compare against this, not against the committed value, so that
    /// a pending event is always followed by a corrective event when the
    /// inputs change back before it commits.
    projected: Vec<L>,
    queue: RadixQueue<L>,
    pub(crate) time: f64,
    /// Committed events; a packed event counts once however many lanes it
    /// changes.
    pub(crate) committed: usize,
    /// Switching counters: one plain counter per net at the scalar width,
    /// eight bit planes per net at the packed one (see [`Lanes::count`]).
    pub(crate) counters: L::Counters,
    /// One bit per net: whether its changes are recorded.
    watched: Vec<u64>,
    /// Net → index into `waves` (`u32::MAX` = not watched).
    watch_slot: Vec<u32>,
    /// Raw change records of the watched nets.
    pub(crate) waves: Vec<(NetId, Vec<(f64, L)>)>,
    /// Reused input-value gather buffer (cleared per evaluation, never
    /// reallocated after warm-up).
    scratch: Vec<L>,
    /// Register captures in chronological order.
    pub captures: Vec<Capture<L>>,
}

impl<'a> Simulator<'a, Value> {
    /// A scalar cursor over a private compile of `netlist`.
    pub fn new(netlist: &'a Netlist, library: &CellLibrary, config: SimConfig) -> Self {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, 1)
    }
}

impl<'a> Simulator<'a, PackedValue> {
    /// A packed cursor with `lanes` live lanes over a private compile of
    /// `netlist`.
    pub fn new(
        netlist: &'a Netlist,
        library: &CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Self {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, lanes)
    }
}

impl<'a, L: Lanes> Simulator<'a, L> {
    /// Creates a cursor with `lanes` live stimulus lanes (1 for a scalar
    /// cursor) over a compiled `model` of `netlist`. Construction only
    /// allocates the per-run state; nothing about [`CompiledModel`] is
    /// lane-aware.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=L::WIDTH`, or if the model's
    /// dimensions do not match `netlist` (the model was compiled from a
    /// different structure).
    pub fn with_lanes(netlist: &'a Netlist, model: Arc<CompiledModel>, lanes: usize) -> Self {
        assert!(
            (1..=L::WIDTH).contains(&lanes),
            "simulation carries 1..={} lanes, got {lanes}",
            L::WIDTH
        );
        assert!(
            model.num_nets() == netlist.num_nets() && model.num_cells() == netlist.num_cells(),
            "compiled model ({} nets, {} cells) does not match netlist `{}` ({} nets, {} cells)",
            model.num_nets(),
            model.num_cells(),
            netlist.name(),
            netlist.num_nets(),
            netlist.num_cells(),
        );
        let num_nets = model.num_nets();
        let mut sim = Self {
            netlist,
            model,
            lanes,
            lane_mask: live_mask(lanes),
            values: vec![L::splat(Value::X); num_nets],
            projected: vec![L::splat(Value::X); num_nets],
            queue: RadixQueue::new(),
            time: 0.0,
            committed: 0,
            counters: L::counters(num_nets, lanes),
            watched: vec![0u64; num_nets.div_ceil(64)],
            watch_slot: vec![u32::MAX; num_nets],
            waves: Vec::new(),
            scratch: Vec::new(),
            captures: Vec::new(),
        };
        // Seed the constant drivers at time zero, in cell order — the order
        // fixes the pop order among equal times, keeping runs bit-identical.
        for i in 0..sim.model.const_seeds.len() {
            let (net, value) = sim.model.const_seeds[i];
            sim.schedule(net, L::splat(value), 0.0);
        }
        sim
    }

    /// The compiled model this cursor runs over.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The current simulation time in picoseconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total number of committed events since construction — the work the
    /// kernel did: a packed event counts once however many lanes it changes.
    pub fn committed_events(&self) -> usize {
        self.committed
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> L {
        self.values[net.index()]
    }

    /// Starts recording the changes of `net`.
    pub fn watch(&mut self, net: NetId) {
        let index = net.index();
        if self.watch_slot[index] == u32::MAX {
            self.watched[index / 64] |= 1u64 << (index % 64);
            self.watch_slot[index] = self.waves.len() as u32;
            self.waves.push((net, Vec::new()));
        }
    }

    /// Starts recording the changes of every net whose name is in `names`.
    pub fn watch_named(&mut self, names: &[&str]) {
        for &name in names {
            if let Some(net) = self.netlist.find_net(name) {
                self.watch(net);
            }
        }
    }

    /// Schedules a value change on `net` at absolute time `at_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ps` is not finite (NaN or ±∞ would corrupt the event
    /// order), or if it is in the past (before the current simulation time).
    pub fn schedule(&mut self, net: NetId, value: L, at_ps: f64) {
        assert!(
            at_ps.is_finite(),
            "cannot schedule an event at non-finite time {at_ps} ps on net `{}`",
            self.netlist.net(net).name
        );
        assert!(
            at_ps + 1e-9 >= self.time,
            "cannot schedule an event in the past ({at_ps} < {})",
            self.time
        );
        self.projected[net.index()] = value;
        // `+ 0.0` normalizes a negative zero (whose bit pattern would sort
        // *after* every positive time) to +0.0; clamped times are otherwise
        // non-negative, so the key order equals the numeric order.
        let time = at_ps.max(self.time) + 0.0;
        self.queue.push(Event {
            key: time.to_bits(),
            net,
            value,
        });
    }

    /// Drives a primary input (or any net) to `value` at the current time.
    pub fn set(&mut self, net: NetId, value: L) {
        self.schedule(net, value, self.time);
    }

    /// Forces the output nets of all flip-flops and latches to `value` in
    /// every lane at the current time, modelling a global reset of the
    /// register state.
    pub fn initialize_registers(&mut self, value: Value) {
        let value = L::splat(value);
        for i in 0..self.model.register_outputs.len() {
            let output = self.model.register_outputs[i];
            self.schedule(output, value, self.time);
        }
    }

    /// Runs the simulation until the event queue is empty or the next event
    /// lies beyond `until_ps`; the simulation time is then advanced to
    /// `until_ps`.
    ///
    /// Returns the number of committed events.
    pub fn run_until(&mut self, until_ps: f64) -> usize {
        // Keys order as the non-negative times they encode: a negative
        // bound admits no event, and a NaN one, which no time exceeds,
        // admits every event.
        let limit = match until_ps {
            t if t < 0.0 => return 0,
            t if t.is_nan() => u64::MAX,
            t => (t + 0.0).to_bits(),
        };
        let mut committed = 0usize;
        while let Some(event) = self.queue.pop_until(limit) {
            self.time = event.time_ps();
            committed += self.commit(event);
        }
        self.time = self.time.max(until_ps);
        committed
    }

    /// Runs until the event queue drains completely (combinational settling).
    /// Returns the number of committed events.
    ///
    /// A safety cap of `max_events` guards against oscillating feedback
    /// loops; the run stops early when the cap is reached.
    pub fn settle(&mut self, max_events: usize) -> usize {
        let mut committed = 0usize;
        while committed < max_events {
            let Some(event) = self.queue.pop_until(u64::MAX) else {
                break;
            };
            self.time = event.time_ps();
            committed += self.commit(event);
        }
        committed
    }

    /// Ends the run, moving its observables out of the cursor into the
    /// width's run type with `cycles` recorded as the logical cycle count:
    /// a [`SimRun`] for a scalar cursor, a
    /// [`PackedSimRun`](crate::PackedSimRun) for a packed one.
    pub fn into_run(self, cycles: usize) -> L::Run {
        L::finish(self, cycles)
    }

    fn commit(&mut self, event: Event<L>) -> usize {
        let net = event.net.index();
        let old = self.values[net];
        let changed = old.diff_mask(event.value);
        if changed == 0 {
            return 0;
        }
        self.values[net] = event.value;
        self.committed += 1;
        // Transitions out of the unknown initialization state are not
        // counted as switching activity; a lane's committed events are its
        // transitions plus these exits.
        let visible = changed & self.lane_mask;
        let x_exits = visible & old.x_mask();
        L::count(&mut self.counters, net, visible & !x_exits, x_exits);
        if self.watched[net / 64] & (1u64 << (net % 64)) != 0 {
            let slot = self.watch_slot[net] as usize;
            self.waves[slot].1.push((self.time, event.value));
        }
        // React: evaluate every reader of the changed net (a contiguous CSR
        // slice — nothing is cloned).
        let start = self.model.reader_offsets[net] as usize;
        let end = self.model.reader_offsets[net + 1] as usize;
        for i in start..end {
            let cell_id = self.model.reader_cells[i];
            self.evaluate_cell(cell_id, event.net, old, event.value);
        }
        1
    }

    /// Gathers the committed input values of cell `ci` into the reused
    /// scratch buffer.
    fn gather_inputs(&mut self, ci: usize) {
        let start = self.model.input_offsets[ci] as usize;
        let end = self.model.input_offsets[ci + 1] as usize;
        self.scratch.clear();
        let (scratch, values, model) = (&mut self.scratch, &self.values, &self.model);
        scratch.extend(
            model.input_nets[start..end]
                .iter()
                .map(|n| values[n.index()]),
        );
    }

    /// Records a capture of `value` by `cell` in the live lanes of `lanes`.
    fn capture(&mut self, cell: CellId, value: L, lanes: u64) {
        let lanes = lanes & self.lane_mask;
        if lanes != 0 {
            self.captures.push(Capture {
                time_ps: self.time,
                cell,
                value,
                lanes,
            });
        }
    }

    fn evaluate_cell(&mut self, cell_id: CellId, changed: NetId, old: L, new: L) {
        let ci = cell_id.index();
        let kind = self.model.cell_kind[ci];
        let delay = self.model.cell_delay[ci];
        let pins = self.model.input_offsets[ci] as usize;
        match kind {
            CellKind::Dff => {
                // Rising-edge lanes: the clock became One where it was not.
                let rising = new.ones_mask() & !old.ones_mask();
                if changed == self.model.input_nets[pins + 1] && rising != 0 {
                    // Capture D (read once, reused for both the capture
                    // record and the scheduled output).
                    let d = self.values[self.model.input_nets[pins].index()];
                    self.capture(cell_id, d, rising);
                    // Non-rising lanes keep their projected value, so the
                    // event is invisible to them.
                    let output = self.model.cell_output[ci];
                    let payload = L::select(rising, d, self.projected[output.index()]);
                    self.schedule(output, payload, self.time + delay);
                }
            }
            CellKind::LatchLow | CellKind::LatchHigh => {
                let transparent_high = kind == CellKind::LatchHigh;
                let d = self.values[self.model.input_nets[pins].index()];
                let enable_net = self.model.input_nets[pins + 1];
                let en = self.values[enable_net.index()];
                let output = self.model.cell_output[ci];
                // The held state is the value the output is moving towards
                // (the last scheduled value), so that pending events and the
                // hold behaviour stay consistent.
                let stored = self.projected[output.index()];
                let q = L::evaluate_latch(d, en, stored, transparent_high);
                if q.diff_mask(stored) != 0 {
                    self.schedule(output, q, self.time + delay);
                }
                // A closing enable edge captures the current data value:
                // new == closing && old != closing && old != X, per lane.
                if changed == enable_net {
                    let (closing_new, closing_old) = if transparent_high {
                        (new.zeros_mask(), old.zeros_mask())
                    } else {
                        (new.ones_mask(), old.ones_mask())
                    };
                    self.capture(cell_id, d, closing_new & !closing_old & !old.x_mask());
                }
            }
            kind => {
                self.gather_inputs(ci);
                let output = self.model.cell_output[ci];
                let stored = self.projected[output.index()];
                let q = if kind == CellKind::CElement {
                    L::evaluate_c_element(&self.scratch, stored)
                } else {
                    L::evaluate(kind, &self.scratch)
                };
                if q.diff_mask(stored) != 0 {
                    self.schedule(output, q, self.time + delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellLibrary;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    /// The activity counters of the run so far.
    fn activity(sim: &Simulator<'_, Value>) -> Activity {
        sim.clone().into_run(0).activity
    }

    #[test]
    fn combinational_propagation() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::And, &[a, b], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(a, Value::One);
        sim.set(b, Value::One);
        sim.settle(1000);
        assert_eq!(sim.value(y), Value::One);
        sim.set(b, Value::Zero);
        sim.settle(1000);
        assert_eq!(sim.value(y), Value::Zero);
        assert!(sim.committed_events() > 0);
    }

    #[test]
    fn gate_delay_is_respected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(a, Value::One);
        // Before the buffer delay elapses the output is still X.
        sim.run_until(1.0);
        assert_eq!(sim.value(y), Value::X);
        sim.run_until(10_000.0);
        assert_eq!(sim.value(y), Value::One);
        assert!(sim.time() >= 10_000.0);
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_dff("r", d, clk, q).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(clk, Value::Zero);
        sim.set(d, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::X);
        // Rising edge captures d = 1.
        sim.schedule(clk, Value::One, sim.time() + 100.0);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::One);
        assert_eq!(sim.captures.len(), 1);
        assert_eq!(sim.captures[0].value, Value::One);
        // Falling edge does not capture.
        sim.schedule(clk, Value::Zero, sim.time() + 100.0);
        sim.settle(100);
        assert_eq!(sim.captures.len(), 1);
    }

    #[test]
    fn latch_transparency_and_capture() {
        let mut n = Netlist::new("t");
        let en = n.add_input("en");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_latch("l", d, en, q, true).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(en, Value::Zero);
        sim.set(d, Value::Zero);
        sim.settle(100);
        // Open the latch: output follows data.
        sim.schedule(en, Value::One, 1000.0);
        sim.schedule(d, Value::One, 1200.0);
        sim.run_until(2000.0);
        assert_eq!(sim.value(q), Value::One);
        // Close the latch: capture recorded, further data changes ignored.
        sim.schedule(en, Value::Zero, 2500.0);
        sim.schedule(d, Value::Zero, 2600.0);
        sim.run_until(4000.0);
        assert_eq!(sim.value(q), Value::One);
        assert_eq!(sim.captures.len(), 1);
        assert_eq!(sim.captures[0].value, Value::One);
    }

    #[test]
    fn c_element_waits_for_agreement() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        n.add_c_element("c", &[a, b], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(a, Value::Zero);
        sim.set(b, Value::Zero);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::Zero);
        sim.set(a, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::Zero, "output holds until both agree");
        sim.set(b, Value::One);
        sim.settle(100);
        assert_eq!(sim.value(y), Value::One);
    }

    #[test]
    fn activity_counts_transitions_not_initialization() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.set(a, Value::Zero);
        sim.settle(100);
        // X -> 0 / X -> 1 are not counted.
        assert_eq!(activity(&sim).total_transitions(), 0);
        sim.set(a, Value::One);
        sim.settle(100);
        // a toggled and y toggled.
        assert_eq!(activity(&sim).transitions_on(a), 1);
        assert_eq!(activity(&sim).transitions_on(y), 1);
    }

    #[test]
    fn waveform_recording_of_watched_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.watch_named(&["y"]);
        sim.set(a, Value::Zero);
        sim.settle(100);
        sim.set(a, Value::One);
        sim.settle(100);
        let waves = sim.clone().into_run(0).waveforms;
        let w = waves.get("y").unwrap();
        assert!(w.len() >= 2);
        assert!(waves.get("a").is_none(), "a was not watched");
        // Watching twice does not reset the recorded waveform.
        sim.watch(y);
        assert_eq!(sim.into_run(0).waveforms.get("y"), Some(w));
    }

    #[test]
    fn initialize_registers_sets_outputs() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        n.add_dff("r", d, clk, q).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.initialize_registers(Value::Zero);
        sim.settle(100);
        assert_eq!(sim.value(q), Value::Zero);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.run_until(100.0);
        sim.schedule(a, Value::One, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-finite time")]
    fn scheduling_nan_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite time")]
    fn scheduling_infinity_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, f64::INFINITY);
    }

    #[test]
    fn negative_zero_time_sorts_as_zero() {
        // -0.0 passes the finite check; its raw bit pattern would sort
        // after every positive time, so schedule() must normalize it.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        sim.schedule(a, Value::One, -0.0);
        sim.schedule(a, Value::Zero, 5.0);
        sim.settle(100);
        // The -0.0 event commits first (as time 0), the 5 ps event after.
        assert_eq!(sim.value(a), Value::Zero);
        assert_eq!(activity(&sim).transitions_on(a), 1);
    }

    #[test]
    fn far_future_events_pass_through_the_overflow_tier() {
        // Events many 16,384-ps spans (the span of the calendar window this
        // queue replaced) ahead wait in high radix buckets and move down as
        // the floor rises.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Buf, &[a], y).unwrap();
        let l = lib();
        let mut sim = Simulator::<Value>::new(&n, &l, SimConfig::default());
        let span = 16_384.0;
        // A mix of near, far and very far events, scheduled out of order.
        sim.schedule(a, Value::One, 40.0 * span);
        sim.schedule(a, Value::Zero, 2.5 * span);
        sim.schedule(a, Value::One, 10.0);
        sim.run_until(50.0 * span);
        assert_eq!(sim.value(y), Value::One);
        // a: X->1->0->1 gives two counted transitions; y follows.
        assert_eq!(activity(&sim).transitions_on(a), 2);
        assert_eq!(activity(&sim).transitions_on(y), 2);
    }

    #[test]
    fn cursors_over_a_shared_model_match_a_private_compile() {
        // Two cursors over one compiled model, versus a fresh `new` per
        // run: committed values, captures and activity must coincide.
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        let w = n.add_net("w");
        n.add_gate("g", CellKind::Not, &[d], w).unwrap();
        n.add_dff("r", w, clk, q).unwrap();
        let l = lib();
        let model = Arc::new(CompiledModel::compile(&n, &l, SimConfig::default()));
        let drive = |sim: &mut Simulator<'_, Value>| {
            sim.initialize_registers(Value::Zero);
            sim.set(clk, Value::Zero);
            sim.set(d, Value::One);
            sim.settle(1000);
            sim.schedule(clk, Value::One, sim.time() + 100.0);
            sim.settle(1000);
        };
        let mut fresh = Simulator::<Value>::new(&n, &l, SimConfig::default());
        drive(&mut fresh);
        for _ in 0..2 {
            let mut cursor = Simulator::<Value>::with_lanes(&n, Arc::clone(&model), 1);
            drive(&mut cursor);
            assert_eq!(cursor.value(q), fresh.value(q));
            assert_eq!(cursor.captures, fresh.captures);
            assert_eq!(cursor.committed_events(), fresh.committed_events());
            assert_eq!(
                activity(&cursor).total_transitions(),
                activity(&fresh).total_transitions()
            );
            assert_eq!(cursor.model().config(), fresh.model().config());
        }
    }

    #[test]
    #[should_panic(expected = "does not match netlist")]
    fn mismatched_model_is_rejected() {
        let mut a = Netlist::new("a");
        let x = a.add_input("x");
        a.mark_output(x);
        let mut b = Netlist::new("b");
        let y = b.add_input("y");
        let z = b.add_output("z");
        b.add_gate("g", CellKind::Buf, &[y], z).unwrap();
        let l = lib();
        let model = Arc::new(CompiledModel::compile(&a, &l, SimConfig::default()));
        let _ = Simulator::<Value>::with_lanes(&b, model, 1);
    }

    #[test]
    fn radix_queue_orders_equal_keys_and_far_events() {
        let mut q = RadixQueue::<Value>::new();
        assert!(q.is_empty());
        let ev = |t: f64, id: u32| Event {
            key: t.to_bits(),
            net: NetId(id),
            value: Value::One,
        };
        // Inserted out of order; equal times pop in push order.
        q.push(ev(30.0, 3));
        q.push(ev(10.0, 1));
        q.push(ev(10.0, 2));
        // Far ahead: a high radix bucket.
        let far = 1e9;
        q.push(ev(far, 4));
        assert_eq!(q.pop().unwrap().net, NetId(1));
        assert_eq!(q.pop().unwrap().net, NetId(2));
        assert_eq!(q.peek().unwrap().net, NetId(3));
        assert_eq!(q.pop().unwrap().net, NetId(3));
        // The far event is reachable (the floor rises onto it).
        let popped = q.pop().unwrap();
        assert_eq!(popped.net, NetId(4));
        assert_eq!(popped.time_ps(), far);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    impl<P: Copy> RadixQueue<P> {
        fn pop(&mut self) -> Option<Event<P>> {
            self.pop_until(u64::MAX)
        }

        /// The event `pop` would return, without moving anything.
        fn peek(&self) -> Option<&Event<P>> {
            if self.head < self.buckets[0].len() {
                return self.buckets[0].get(self.head);
            }
            let index = self.occupied.trailing_zeros() as usize + 1;
            self.buckets.get(index)?.iter().min_by_key(|e| e.key)
        }

        fn is_empty(&self) -> bool {
            self.peek().is_none()
        }
    }

    /// SplitMix64: a deterministic generator for the queue's differential
    /// test.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The radix queue pops exactly what a binary heap on `(key, seq)`
    /// pops, through random interleavings of pushes and bounded pops shaped
    /// like a testbench's: bursts of equal times, pushes at the current
    /// time while bucket 0 drains, bounds below the next event (after
    /// which the current time moves up to the bound, as `run_until` moves
    /// it), times of 1e9 ps and more, and `+0.0`.
    #[test]
    fn radix_queue_pops_in_key_then_push_order() {
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut queue = RadixQueue::<Value>::new();
            let mut reference = BinaryHeap::new();
            let mut seq = 0u32;
            let mut now = 0.0f64;
            let mut popped = 0;
            for _ in 0..2_000 {
                let roll = split_mix(&mut rng);
                if roll % 8 < 3 {
                    let delta = match (roll >> 8) % 6 {
                        0 | 1 => 0.0,
                        2 => ((roll >> 16) % 64) as f64,
                        3 => ((roll >> 16) % 50_000) as f64 * 0.25,
                        4 => 1e9 + ((roll >> 16) % 1_000) as f64,
                        _ => ((roll >> 16) % 1_000) as f64 * 1e12,
                    };
                    let time = now + delta + 0.0;
                    for _ in 0..1 + (roll >> 48) % 5 {
                        seq += 1;
                        queue.push(Event {
                            key: time.to_bits(),
                            net: NetId(seq),
                            value: Value::One,
                        });
                        reference.push(Reverse((time.to_bits(), seq)));
                    }
                } else {
                    let bound = match (roll >> 8) % 4 {
                        0 => now,
                        1 => now + ((roll >> 16) % 200) as f64,
                        2 => now + ((roll >> 16) % 2_000_000) as f64 * 1e3,
                        _ => f64::MAX,
                    };
                    let limit = bound.to_bits();
                    let expected = match reference.peek() {
                        Some(&Reverse((key, _))) if key <= limit => reference.pop(),
                        _ => None,
                    };
                    let got = queue.pop_until(limit);
                    assert_eq!(
                        got.map(|e| (e.key, e.net.0)),
                        expected.map(|Reverse(pair)| pair),
                        "seed {seed}, pop {popped}"
                    );
                    popped += 1;
                    now = match got {
                        Some(event) => event.time_ps(),
                        None if bound < f64::MAX => now.max(bound),
                        None => now,
                    };
                }
            }
            while let Some(Reverse((key, seq))) = reference.pop() {
                let event = queue.pop().expect("queue holds what the reference holds");
                assert_eq!((event.key, event.net.0), (key, seq), "seed {seed}, drain");
            }
            assert!(queue.is_empty());
        }
    }

    /// The two `Lanes` impls agree: on splatted inputs, lane 0 of every
    /// packed mask, `select` and evaluator equals the scalar one, for every
    /// combination of four inputs over `{Zero, One, X}` (shorter input lists
    /// are its prefixes).
    #[test]
    fn scalar_lanes_equal_lane_zero_of_splatted_packed_lanes() {
        const VALUES: [Value; 3] = [Value::Zero, Value::One, Value::X];
        for combination in 0..81 {
            let row: Vec<Value> = (0..4)
                .map(|i| VALUES[combination / 3usize.pow(i) % 3])
                .collect();
            let packed: Vec<PackedValue> = row.iter().map(|&v| PackedValue::splat(v)).collect();
            let (a, b, c, d) = (row[0], row[1], row[2], row[3]);
            let (pa, pb, pc) = (packed[0], packed[1], packed[2]);
            assert_eq!(a.ones_mask(), pa.ones_mask() & 1, "ones {a:?}");
            assert_eq!(a.zeros_mask(), pa.zeros_mask() & 1, "zeros {a:?}");
            assert_eq!(a.x_mask(), pa.x_mask() & 1, "x {a:?}");
            assert_eq!(a.diff_mask(b), pa.diff_mask(pb) & 1, "diff {a:?} {b:?}");
            for mask in [0, 1, !1, !0] {
                let lane = PackedValue::select(mask, pa, pb).lane(0);
                assert_eq!(Value::select(mask, a, b), lane, "select {mask} {a:?} {b:?}");
            }
            for high in [false, true] {
                let lane = PackedValue::evaluate_latch(pa, pb, pc, high).lane(0);
                assert_eq!(Value::evaluate_latch(a, b, c, high), lane, "latch {row:?}");
            }
            for arity in 0..=4 {
                let (inputs, packed_inputs) = (&row[..arity], &packed[..arity]);
                for &kind in CellKind::all().iter().filter(|k| k.is_combinational()) {
                    if arity < 4 || kind == CellKind::AndOrInv {
                        let lane = PackedValue::evaluate(kind, packed_inputs).lane(0);
                        assert_eq!(Value::evaluate(kind, inputs), lane, "{kind:?} {inputs:?}");
                    }
                }
                if arity < 4 {
                    // The fourth input is the C-element's previous value.
                    let lane = PackedValue::evaluate_c_element(packed_inputs, packed[3]).lane(0);
                    let scalar = Value::evaluate_c_element(inputs, d);
                    assert_eq!(scalar, lane, "c-element {inputs:?} previous {d:?}");
                }
            }
        }
    }
}
