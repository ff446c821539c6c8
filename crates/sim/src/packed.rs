//! Bit-parallel (packed) simulation: 64 independent stimulus lanes per word.
//!
//! Classic parallel-pattern simulation observes that under matched delays the
//! event *schedule* of a gate-level run is stimulus-independent — only the
//! payloads differ between two runs of the same netlist. The packed kernel
//! exploits this: each net carries a [`PackedValue`] of 64 independent
//! 4-state lanes encoded as two `u64` bit-planes, every [`CellKind`] is
//! evaluated with branch-free word-wide logic, and one pass over the calendar
//! queue advances all 64 stimulus vectors at once.
//!
//! # Two-bit-plane encoding
//!
//! Lane *i* of a [`PackedValue`] is described by bit *i* of two planes,
//! forming an interval in the `Zero < X < One` information order:
//!
//! | value  | `lo` (definitely One) | `hi` (possibly One) |
//! |--------|-----------------------|---------------------|
//! | `Zero` | 0                     | 0                   |
//! | `One`  | 1                     | 1                   |
//! | `X`    | 0                     | 1                   |
//!
//! (`lo = 1, hi = 0` is unrepresentable by construction.) Under this
//! encoding the Kleene operators become plain word ops — `NOT` swaps and
//! complements the planes, `AND`/`OR` are per-plane `&`/`|` — and the
//! remaining kinds (`Xor`, `Mux2`, `AndOrInv`, latches, C-elements) compose
//! from plane masks ([`PackedValue::known_mask`], [`PackedValue::eq_mask`],
//! [`PackedValue::select`]). Every operator is verified lane-for-lane against
//! the scalar [`desync_netlist::value`] truth tables by exhaustive unit
//! tests; the scalar kernel stays the golden reference.
//!
//! # Bit-identity contract
//!
//! [`PackedSimulator`] reuses the scalar kernel's machinery unchanged — the
//! same [`CompiledModel`], the same calendar queue and integer time keys,
//! the same commit/CSR-walk skeleton — only the event payloads widen from
//! [`Value`] to [`PackedValue`]. A packed event is scheduled when *any* lane
//! departs from its projected value; on lanes where the payload equals the
//! projected value the event is invisible, exactly like the event the scalar
//! kernel would not have scheduled. Each lane therefore observes exactly
//! what a scalar run with that lane's stimulus observes.
//!
//! A finished run stays packed ([`PackedSimulator::into_run`]): one packed
//! capture stream per register, each capture carrying the mask of lanes
//! that took it, the per-lane event and switching counters, and the raw
//! packed change records of the watched nets. When every capture of a
//! register was taken by all live lanes ([`PackedStream::is_uniform`] —
//! true whenever the testbench's broadcast clock or enables reach the
//! register without data-dependent gating), the lanes' scalar streams line
//! up position by position, and one
//! [`PackedValue::diff_mask`] per capture pair compares all lanes at once —
//! which is how `desync-core` checks campaign lanes for flow equivalence.
//! [`PackedSimRun::lane`] builds one lane's scalar [`SimRun`] only when a
//! caller asks for it, bit-identical to the scalar run — times, capture
//! streams, activity counts and waveforms alike. The property suite
//! `desync-core/tests/sim_packed_golden.rs` pins this across random
//! circuits, all three handshake protocols and both harnesses, and
//! `desync-core/tests/packed_compare.rs` pins the packed-space verdicts
//! against per-lane comparison of the extracted runs.
//!
//! Lane counts below 64 are supported: the packed stimulus replicates its
//! last lane into the unused tail lanes (so they never create extra events)
//! and all per-lane accounting is masked to the live lanes.

use crate::activity::Activity;
use crate::engine::{CalendarQueue, Event, SimConfig};
use crate::harness::{value_to_word, EnableSchedule, SimRun};
use crate::model::CompiledModel;
use crate::stimulus::PackedVectorSource;
use crate::waveform::{Waveform, WaveformSet};
use desync_mg::FlowTrace;
use desync_netlist::{CellId, CellKind, CellLibrary, NetId, Netlist, NetlistError, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of stimulus lanes one machine word carries.
pub const MAX_LANES: usize = 64;

/// 64 independent 4-state values in two bit-planes (see the
/// [module documentation](self) for the encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PackedValue {
    lo: u64,
    hi: u64,
}

impl PackedValue {
    /// The same scalar value in every lane.
    pub fn splat(value: Value) -> Self {
        match value {
            Value::Zero => Self { lo: 0, hi: 0 },
            Value::One => Self { lo: !0, hi: !0 },
            Value::X => Self { lo: 0, hi: !0 },
        }
    }

    /// All lanes `X` (the uninitialized state).
    pub fn all_x() -> Self {
        Self::splat(Value::X)
    }

    /// The scalar value in lane `lane` (0..64).
    pub fn lane(self, lane: usize) -> Value {
        let bit = 1u64 << lane;
        match (self.lo & bit != 0, self.hi & bit != 0) {
            (true, _) => Value::One,
            (false, true) => Value::X,
            (false, false) => Value::Zero,
        }
    }

    /// Sets lane `lane` to `value`.
    pub fn set_lane(&mut self, lane: usize, value: Value) {
        let bit = 1u64 << lane;
        let (lo, hi) = match value {
            Value::Zero => (false, false),
            Value::One => (true, true),
            Value::X => (false, true),
        };
        self.lo = if lo { self.lo | bit } else { self.lo & !bit };
        self.hi = if hi { self.hi | bit } else { self.hi & !bit };
    }

    /// Mask of lanes holding `One`.
    pub fn ones_mask(self) -> u64 {
        self.lo
    }

    /// Mask of lanes holding `Zero`.
    pub fn zeros_mask(self) -> u64 {
        !self.hi
    }

    /// Mask of lanes holding `X`.
    pub fn x_mask(self) -> u64 {
        self.hi & !self.lo
    }

    /// Mask of lanes holding a known (non-`X`) value.
    pub fn known_mask(self) -> u64 {
        !self.hi | self.lo
    }

    /// Mask of lanes where `self` and `other` differ.
    pub fn diff_mask(self, other: Self) -> u64 {
        (self.lo ^ other.lo) | (self.hi ^ other.hi)
    }

    /// Mask of lanes where `self` and `other` hold the same value
    /// (`X == X` included — exact equality, not Kleene equivalence).
    pub fn eq_mask(self, other: Self) -> u64 {
        !self.diff_mask(other)
    }

    /// Per-lane choice: lanes set in `mask` take `then`, the rest `other`.
    pub fn select(mask: u64, then: Self, other: Self) -> Self {
        Self {
            lo: (mask & then.lo) | (!mask & other.lo),
            hi: (mask & then.hi) | (!mask & other.hi),
        }
    }

    /// Lane-wise Kleene NOT: swap and complement the planes.
    #[allow(clippy::should_implement_trait)] // `impl Not` exists below; this is the named form
    pub fn not(self) -> Self {
        Self {
            lo: !self.hi,
            hi: !self.lo,
        }
    }

    /// Lane-wise Kleene AND (`Zero` dominates).
    pub fn and(self, other: Self) -> Self {
        Self {
            lo: self.lo & other.lo,
            hi: self.hi & other.hi,
        }
    }

    /// Lane-wise Kleene OR (`One` dominates).
    pub fn or(self, other: Self) -> Self {
        Self {
            lo: self.lo | other.lo,
            hi: self.hi | other.hi,
        }
    }

    /// Lane-wise Kleene XOR (`X` when either side is unknown).
    pub fn xor(self, other: Self) -> Self {
        let known = self.known_mask() & other.known_mask();
        let value = self.lo ^ other.lo;
        Self {
            lo: known & value,
            hi: (known & value) | !known,
        }
    }
}

impl std::ops::Not for PackedValue {
    type Output = PackedValue;

    fn not(self) -> PackedValue {
        PackedValue::not(self)
    }
}

/// Branch-free packed counterpart of [`desync_netlist::value::evaluate`]:
/// evaluates a combinational `kind` lane-wise over packed inputs.
pub fn packed_evaluate(kind: CellKind, inputs: &[PackedValue]) -> PackedValue {
    let input = |i: usize| inputs.get(i).copied().unwrap_or_else(PackedValue::all_x);
    match kind {
        CellKind::Const0 => PackedValue::splat(Value::Zero),
        CellKind::Const1 => PackedValue::splat(Value::One),
        CellKind::Buf | CellKind::Delay => input(0),
        CellKind::Not => input(0).not(),
        CellKind::And => inputs
            .iter()
            .fold(PackedValue::splat(Value::One), |acc, &v| acc.and(v)),
        CellKind::Nand => packed_evaluate(CellKind::And, inputs).not(),
        CellKind::Or => inputs
            .iter()
            .fold(PackedValue::splat(Value::Zero), |acc, &v| acc.or(v)),
        CellKind::Nor => packed_evaluate(CellKind::Or, inputs).not(),
        CellKind::Xor => inputs
            .iter()
            .fold(PackedValue::splat(Value::Zero), |acc, &v| acc.xor(v)),
        CellKind::Xnor => packed_evaluate(CellKind::Xor, inputs).not(),
        CellKind::Mux2 => {
            let (sel, a, b) = (input(0), input(1), input(2));
            // Known selector lanes route; unknown ones resolve to the data
            // only where both data inputs agree exactly (else X).
            let routed = PackedValue::select(sel.ones_mask(), b, a);
            let agree = a.eq_mask(b);
            let unknown_sel = PackedValue::select(agree, a, PackedValue::all_x());
            PackedValue::select(sel.known_mask(), routed, unknown_sel)
        }
        CellKind::AndOrInv => {
            let (a, b, c, d) = (input(0), input(1), input(2), input(3));
            a.and(b).or(c.and(d)).not()
        }
        // Sequential kinds have dedicated evaluation paths.
        CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh | CellKind::CElement => {
            PackedValue::all_x()
        }
    }
}

/// Packed counterpart of [`desync_netlist::value::evaluate_c_element`]:
/// lanes where all inputs agree on a known value take it, the rest hold
/// `previous`.
pub fn packed_evaluate_c_element(inputs: &[PackedValue], previous: PackedValue) -> PackedValue {
    let Some((&first, rest)) = inputs.split_first() else {
        return previous;
    };
    let agree = rest.iter().fold(!0u64, |acc, &v| acc & v.eq_mask(first));
    PackedValue::select(agree & first.known_mask(), first, previous)
}

/// Packed counterpart of [`desync_netlist::value::evaluate_latch`]: lanes
/// with a transparent enable follow `data`, opaque lanes hold `stored`, and
/// lanes with an unknown enable resolve to `stored` only where `data`
/// already equals it (else `X`).
pub fn packed_evaluate_latch(
    data: PackedValue,
    enable: PackedValue,
    stored: PackedValue,
    transparent_high: bool,
) -> PackedValue {
    let transparent = if transparent_high {
        enable.ones_mask()
    } else {
        enable.zeros_mask()
    };
    let known = PackedValue::select(transparent, data, stored);
    let unknown_en = PackedValue::select(data.eq_mask(stored), stored, PackedValue::all_x());
    PackedValue::select(enable.known_mask(), known, unknown_en)
}

/// One packed register capture: the packed data value latched by a
/// sequential cell, together with the mask of lanes that actually saw a
/// capturing edge at this instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedCapture {
    /// Simulation time of the capture, in picoseconds.
    pub time_ps: f64,
    /// The sequential cell that captured.
    pub cell: CellId,
    /// The captured packed data value (meaningful on `lanes` only).
    pub value: PackedValue,
    /// Mask of live lanes that captured at this edge.
    pub lanes: u64,
}

/// The bit-parallel sibling of [`crate::EventSimulator`]: a per-run cursor
/// over a shared [`CompiledModel`] that advances up to 64 independent
/// stimulus lanes per committed event.
///
/// See the [module documentation](self) for the encoding and the
/// bit-identity contract. The scalar kernel is the golden reference; this
/// kernel trades one word-wide pass for 64 scalar passes on equivalence
/// campaigns.
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    netlist: &'a Netlist,
    model: Arc<CompiledModel>,
    lanes: usize,
    /// Mask of live lanes (`lanes` low bits); tail lanes replicate the last
    /// live lane and are excluded from all per-lane accounting.
    lane_mask: u64,
    values: Vec<PackedValue>,
    /// Last *scheduled* packed value per net (see the scalar kernel's
    /// `projected` field for the rationale).
    projected: Vec<PackedValue>,
    queue: CalendarQueue<PackedValue>,
    seq: u64,
    time: f64,
    duration_ps: f64,
    committed_words: usize,
    /// Per-lane committed-event counters (events visible to that lane).
    lane_committed: Vec<u64>,
    /// Lane-major per-net switching counters:
    /// `lane_transitions[lane * num_nets + net]`.
    lane_transitions: Vec<u64>,
    watched: Vec<u64>,
    watch_slot: Vec<u32>,
    /// Raw packed change records of watched nets; per-lane waveforms are
    /// extracted (with change collapsing) at export time.
    waves: Vec<(NetId, Vec<(f64, PackedValue)>)>,
    scratch: Vec<PackedValue>,
    /// Packed register captures in chronological order.
    pub captures: Vec<PackedCapture>,
}

impl<'a> PackedSimulator<'a> {
    /// Creates a packed simulator with `lanes` live stimulus lanes,
    /// compiling a private model.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn new(
        netlist: &'a Netlist,
        library: &CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Self {
        Self::with_model(
            netlist,
            Arc::new(CompiledModel::compile(netlist, library, config)),
            lanes,
        )
    }

    /// Creates a packed cursor over a previously compiled `model` — the
    /// exact same models the scalar kernel compiles and `desync-core`
    /// caches; nothing about [`CompiledModel`] is lane-aware.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64` or the model's dimensions do not
    /// match `netlist`.
    pub fn with_model(netlist: &'a Netlist, model: Arc<CompiledModel>, lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "packed simulation carries 1..=64 lanes, got {lanes}"
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
            values: vec![PackedValue::all_x(); num_nets],
            projected: vec![PackedValue::all_x(); num_nets],
            queue: CalendarQueue::new(),
            seq: 0,
            time: 0.0,
            duration_ps: 0.0,
            committed_words: 0,
            lane_committed: vec![0; lanes],
            lane_transitions: vec![0; lanes * num_nets],
            watched: vec![0u64; num_nets.div_ceil(64)],
            watch_slot: vec![u32::MAX; num_nets],
            waves: Vec::new(),
            scratch: Vec::new(),
            captures: Vec::new(),
        };
        // Same constant seeding order as the scalar cursor: the order fixes
        // the event sequence numbers.
        for i in 0..sim.model.const_seeds.len() {
            let (net, value) = sim.model.const_seeds[i];
            sim.schedule(net, PackedValue::splat(value), 0.0);
        }
        sim
    }

    /// Number of live stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask of the live lanes.
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// The compiled model this cursor runs over.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The current simulation time in picoseconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration in use.
    pub fn config(&self) -> SimConfig {
        self.model.config
    }

    /// Number of committed *word* events (one count per committed event,
    /// regardless of how many lanes it changed) — the work the kernel
    /// actually did.
    pub fn committed_words(&self) -> usize {
        self.committed_words
    }

    /// Number of events visible to lane `lane` — bit-identical to the
    /// committed-event count of the corresponding scalar run.
    pub fn lane_committed_events(&self, lane: usize) -> usize {
        self.lane_committed[lane] as usize
    }

    /// The current packed value of a net.
    pub fn value(&self, net: NetId) -> PackedValue {
        self.values[net.index()]
    }

    /// The current value of a net in lane `lane`.
    pub fn lane_value(&self, net: NetId, lane: usize) -> Value {
        self.value(net).lane(lane)
    }

    /// Starts recording a waveform for `net`.
    pub fn watch(&mut self, net: NetId) {
        let index = net.index();
        if self.watch_slot[index] == u32::MAX {
            self.watched[index / 64] |= 1u64 << (index % 64);
            self.watch_slot[index] = self.waves.len() as u32;
            self.waves.push((net, Vec::new()));
        }
    }

    /// Starts recording waveforms for every net whose name is in `names`.
    pub fn watch_named(&mut self, names: &[&str]) {
        for &name in names {
            if let Some(net) = self.netlist.find_net(name) {
                self.watch(net);
            }
        }
    }

    /// Schedules a packed value change on `net` at absolute time `at_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ps` is not finite or lies in the past, exactly like the
    /// scalar [`crate::EventSimulator::schedule`].
    pub fn schedule(&mut self, net: NetId, value: PackedValue, at_ps: f64) {
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
        self.seq += 1;
        self.projected[net.index()] = value;
        let time = at_ps.max(self.time) + 0.0;
        self.queue.push(Event {
            key: time.to_bits(),
            seq: self.seq,
            net,
            value,
        });
    }

    /// Drives a net to a packed value at the current time.
    pub fn set(&mut self, net: NetId, value: PackedValue) {
        self.schedule(net, value, self.time);
    }

    /// Forces the output nets of all flip-flops and latches to `value` in
    /// every lane at the current time.
    pub fn initialize_registers(&mut self, value: Value) {
        let packed = PackedValue::splat(value);
        for i in 0..self.model.register_outputs.len() {
            let output = self.model.register_outputs[i];
            self.schedule(output, packed, self.time);
        }
    }

    /// Runs until the event queue is empty or the next event lies beyond
    /// `until_ps`; the simulation time is then advanced to `until_ps`.
    /// Returns the number of committed word events.
    pub fn run_until(&mut self, until_ps: f64) -> usize {
        let mut committed = 0usize;
        while let Some(next) = self.queue.peek() {
            if next.time_ps() > until_ps {
                break;
            }
            let event = self.queue.pop().expect("peeked event exists");
            self.time = event.time_ps();
            committed += self.commit(event);
        }
        self.time = self.time.max(until_ps);
        self.duration_ps = self.time;
        committed
    }

    /// Runs until the event queue drains completely, with a safety cap of
    /// `max_events` committed word events. Returns the committed count.
    pub fn settle(&mut self, max_events: usize) -> usize {
        let mut committed = 0usize;
        while committed < max_events {
            let Some(event) = self.queue.pop() else { break };
            self.time = event.time_ps();
            committed += self.commit(event);
        }
        self.duration_ps = self.time;
        committed
    }

    fn commit(&mut self, event: Event<PackedValue>) -> usize {
        let net = event.net.index();
        let old = self.values[net];
        let changed = old.diff_mask(event.value);
        if changed == 0 {
            return 0;
        }
        self.values[net] = event.value;
        self.committed_words += 1;
        let mut visible = changed & self.lane_mask;
        while visible != 0 {
            let lane = visible.trailing_zeros() as usize;
            self.lane_committed[lane] += 1;
            visible &= visible - 1;
        }
        // Transitions out of X are not switching activity (scalar contract).
        let mut toggled = changed & self.lane_mask & !old.x_mask();
        while toggled != 0 {
            let lane = toggled.trailing_zeros() as usize;
            self.lane_transitions[lane * self.model.num_nets + net] += 1;
            toggled &= toggled - 1;
        }
        if self.watched[net / 64] & (1u64 << (net % 64)) != 0 {
            let slot = self.watch_slot[net] as usize;
            self.waves[slot].1.push((self.time, event.value));
        }
        let start = self.model.reader_offsets[net] as usize;
        let end = self.model.reader_offsets[net + 1] as usize;
        for i in start..end {
            let cell_id = self.model.reader_cells[i];
            self.evaluate_cell(cell_id, event.net, old, event.value);
        }
        1
    }

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

    fn evaluate_cell(
        &mut self,
        cell_id: CellId,
        changed: NetId,
        old: PackedValue,
        new: PackedValue,
    ) {
        let ci = cell_id.index();
        let kind = self.model.cell_kind[ci];
        let delay = self.model.cell_delay[ci];
        let pins = self.model.input_offsets[ci] as usize;
        match kind {
            CellKind::Dff => {
                let clk = self.model.input_nets[pins + 1];
                if changed == clk {
                    // Rising-edge lanes: clock became One where it was not.
                    let rising = new.ones_mask() & !old.ones_mask();
                    if rising != 0 {
                        let d = self.values[self.model.input_nets[pins].index()];
                        let output = self.model.cell_output[ci];
                        let captured = rising & self.lane_mask;
                        if captured != 0 {
                            self.captures.push(PackedCapture {
                                time_ps: self.time,
                                cell: cell_id,
                                value: d,
                                lanes: captured,
                            });
                        }
                        // Non-rising lanes keep their projected value, so
                        // the event is invisible to them.
                        let held = self.projected[output.index()];
                        let payload = PackedValue::select(rising, d, held);
                        self.schedule(output, payload, self.time + delay);
                    }
                }
            }
            CellKind::LatchLow | CellKind::LatchHigh => {
                let transparent_high = kind == CellKind::LatchHigh;
                let d = self.values[self.model.input_nets[pins].index()];
                let enable_net = self.model.input_nets[pins + 1];
                let en = self.values[enable_net.index()];
                let output = self.model.cell_output[ci];
                let stored = self.projected[output.index()];
                let q = packed_evaluate_latch(d, en, stored, transparent_high);
                if q.diff_mask(stored) != 0 {
                    self.schedule(output, q, self.time + delay);
                }
                // Closing enable edges capture the current data value:
                // new == closing && old != closing && old != X, per lane.
                if changed == enable_net {
                    let (closing_new, closing_old) = if transparent_high {
                        (new.zeros_mask(), old.zeros_mask())
                    } else {
                        (new.ones_mask(), old.ones_mask())
                    };
                    let captured = closing_new & !closing_old & !old.x_mask() & self.lane_mask;
                    if captured != 0 {
                        self.captures.push(PackedCapture {
                            time_ps: self.time,
                            cell: cell_id,
                            value: d,
                            lanes: captured,
                        });
                    }
                }
            }
            CellKind::CElement => {
                self.gather_inputs(ci);
                let output = self.model.cell_output[ci];
                let stored = self.projected[output.index()];
                let q = packed_evaluate_c_element(&self.scratch, stored);
                if q.diff_mask(stored) != 0 {
                    self.schedule(output, q, self.time + delay);
                }
            }
            kind => {
                self.gather_inputs(ci);
                let output = self.model.cell_output[ci];
                let q = packed_evaluate(kind, &self.scratch);
                if q.diff_mask(self.projected[output.index()]) != 0 {
                    self.schedule(output, q, self.time + delay);
                }
            }
        }
    }

    /// Ends the run, moving its observables out of the cursor into a
    /// [`PackedSimRun`] with `cycles` recorded as the logical cycle count:
    /// the captures grouped into one packed stream per register (sorted by
    /// register name), the per-lane event and switching counters, and the
    /// raw packed change records of the watched nets. Nothing is extracted
    /// per lane; [`PackedSimRun::lane`] does that on demand.
    pub fn into_run(self, cycles: usize) -> PackedSimRun {
        let netlist = self.netlist;
        let mut per_cell: Vec<Vec<(u64, PackedValue)>> = vec![Vec::new(); self.model.num_cells()];
        for cap in &self.captures {
            per_cell[cap.cell.index()].push((cap.lanes, cap.value));
        }
        let mut streams: Vec<PackedStream> = per_cell
            .into_iter()
            .enumerate()
            .filter(|(_, captures)| !captures.is_empty())
            .map(|(index, captures)| PackedStream {
                register: netlist.cell(CellId(index as u32)).name.to_string(),
                captures,
            })
            .collect();
        streams.sort_unstable_by(|a, b| a.register.cmp(&b.register));
        let waves = self
            .waves
            .into_iter()
            .map(|(net, changes)| (netlist.net(net).name.to_string(), changes))
            .collect();
        PackedSimRun {
            lanes: self.lanes,
            streams,
            lane_events: self.lane_committed,
            lane_transitions: self.lane_transitions,
            waves,
            cycles,
            duration_ps: self.duration_ps,
            word_committed_events: self.committed_words,
        }
    }
}

/// Mask of the low `lanes` lanes of a word.
fn live_mask(lanes: usize) -> u64 {
    if lanes == MAX_LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// One register's packed capture stream: each capture in chronological
/// order, as the mask of live lanes that captured at that edge together
/// with the captured packed value (meaningful on those lanes only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedStream {
    /// Instance name of the capturing register.
    pub register: String,
    /// `(lane mask, value)` per capture, in capture order.
    pub captures: Vec<(u64, PackedValue)>,
}

impl PackedStream {
    /// Whether every capture was taken by exactly the `live` lanes. Every
    /// lane's scalar stream is then `captures` read at that lane, position
    /// for position, so lanes can be compared without extracting them.
    pub fn is_uniform(&self, live: u64) -> bool {
        self.captures.iter().all(|&(lanes, _)| lanes == live)
    }
}

/// The observable result of one packed run, kept packed: one packed
/// capture stream per register, the per-lane event and switching counters,
/// the raw packed change records of the watched nets, and the word-level
/// work the kernel actually did.
///
/// Equivalence campaigns compare lanes directly on the packed streams. A
/// lane's scalar [`SimRun`] is built only when a caller asks for it through
/// [`PackedSimRun::lane`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedSimRun {
    lanes: usize,
    /// Per-register capture streams, sorted by register name.
    streams: Vec<PackedStream>,
    /// Per-lane committed-event counters.
    lane_events: Vec<u64>,
    /// Lane-major per-net switching counters:
    /// `lane_transitions[lane * num_nets + net]`.
    lane_transitions: Vec<u64>,
    /// Raw packed change records of the watched nets, by net name in watch
    /// order.
    waves: Vec<(String, Vec<(f64, PackedValue)>)>,
    /// Number of clock cycles (synchronous) or scheduled iterations
    /// (asynchronous) executed.
    pub cycles: usize,
    /// Total simulated time in picoseconds.
    pub duration_ps: f64,
    /// Number of committed word events (the kernel's real work; each word
    /// event advances all lanes at once).
    pub word_committed_events: usize,
}

impl PackedSimRun {
    /// Number of live lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask of the live lanes.
    pub fn lane_mask(&self) -> u64 {
        live_mask(self.lanes)
    }

    /// The packed capture streams, sorted by register name.
    pub fn streams(&self) -> &[PackedStream] {
        &self.streams
    }

    /// The packed capture stream of `register`, if it captured in any lane.
    pub fn stream(&self, register: &str) -> Option<&PackedStream> {
        self.streams
            .binary_search_by(|stream| stream.register.as_str().cmp(register))
            .ok()
            .map(|index| &self.streams[index])
    }

    /// Builds lane `lane` as a scalar [`SimRun`], bit-identical to running
    /// the scalar kernel with that lane's stimulus: capture streams,
    /// activity, waveforms and committed events.
    ///
    /// Waveform records are collapsed per lane: a record whose lane value
    /// equals the previous one is a change on *other* lanes only and is
    /// skipped, which reproduces the scalar recording exactly.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a live lane.
    pub fn lane(&self, lane: usize) -> SimRun {
        assert!(
            lane < self.lanes,
            "lane {lane} of a {}-lane packed run",
            self.lanes
        );
        let bit = 1u64 << lane;
        let mut flow_trace = FlowTrace::new();
        for stream in &self.streams {
            let values: Vec<u64> = stream
                .captures
                .iter()
                .filter(|&&(lanes, _)| lanes & bit != 0)
                .map(|&(_, value)| value_to_word(value.lane(lane)))
                .collect();
            if !values.is_empty() {
                flow_trace.extend_stream(stream.register.clone(), values);
            }
        }
        let nets = self.lane_transitions.len() / self.lanes;
        let mut waveforms = WaveformSet::new();
        for (name, changes) in &self.waves {
            let mut wave = Waveform::new();
            let mut previous = Value::X;
            for &(time_ps, packed) in changes {
                let value = packed.lane(lane);
                if value != previous {
                    wave.push(time_ps, value);
                    previous = value;
                }
            }
            waveforms.insert(name.clone(), wave);
        }
        SimRun {
            flow_trace,
            activity: Activity {
                transitions: self.lane_transitions[lane * nets..(lane + 1) * nets].to_vec(),
                duration_ps: self.duration_ps,
            },
            waveforms,
            cycles: self.cycles,
            duration_ps: self.duration_ps,
            committed_events: self.lane_events[lane] as usize,
        }
    }

    /// Total scalar-equivalent committed events across all lanes — what 64
    /// scalar runs would have committed; the numerator of the packed
    /// speedup.
    pub fn lane_committed_events(&self) -> usize {
        self.lane_events.iter().sum::<u64>() as usize
    }

    /// Captured values summed over the live lanes: what the lanes' scalar
    /// flow traces would hold together, counted without extracting them.
    pub fn lane_captured_values(&self) -> usize {
        let live = self.lane_mask();
        self.streams
            .iter()
            .flat_map(|stream| &stream.captures)
            .map(|&(lanes, _)| (lanes & live).count_ones() as usize)
            .sum()
    }

    /// Waveform changes summed over the live lanes: what the lanes' scalar
    /// waveforms would record together, counted without extracting them.
    pub fn lane_waveform_changes(&self) -> usize {
        let live = self.lane_mask();
        let mut changes = 0;
        for (_, records) in &self.waves {
            let mut previous = PackedValue::all_x();
            for &(_, value) in records {
                changes += (previous.diff_mask(value) & live).count_ones() as usize;
                previous = value;
            }
        }
        changes
    }
}

/// The packed sibling of [`crate::SyncTestbench`]: drives the clock and a
/// [`PackedVectorSource`] of up to 64 stimulus lanes through one packed run.
///
/// The drive script is byte-for-byte the scalar testbench's (registers to
/// 0, inputs to 0, settle, then a fixed clock grid with vectors shortly
/// after each rising edge), with control nets broadcast across lanes — so
/// each lane of the run is bit-identical to a scalar run with that lane's
/// stimulus.
#[derive(Debug)]
pub struct PackedSyncTestbench<'a> {
    netlist: &'a Netlist,
    sim: PackedSimulator<'a>,
    clock: NetId,
}

impl<'a> PackedSyncTestbench<'a> {
    /// Creates a packed testbench for `netlist` with `lanes` stimulus lanes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist does not have
    /// exactly one clock net.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Result<Self, NetlistError> {
        let clock = netlist.single_clock()?;
        Ok(Self {
            netlist,
            sim: PackedSimulator::new(netlist, library, config, lanes),
            clock,
        })
    }

    /// Like [`PackedSyncTestbench::new`] but over a previously compiled
    /// `model` (the same models the scalar harness compiles and caches).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist does not have
    /// exactly one clock net.
    pub fn with_model(
        netlist: &'a Netlist,
        model: Arc<CompiledModel>,
        lanes: usize,
    ) -> Result<Self, NetlistError> {
        let clock = netlist.single_clock()?;
        Ok(Self {
            netlist,
            sim: PackedSimulator::with_model(netlist, model, lanes),
            clock,
        })
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs `cycles` clock cycles with period `period_ps`, applying one
    /// packed vector from `source` per cycle. The testbench is consumed:
    /// its cursor's counters and captures move into the returned run.
    ///
    /// # Panics
    ///
    /// Panics if `source` does not carry exactly this testbench's lane
    /// count.
    pub fn run(
        mut self,
        cycles: usize,
        period_ps: f64,
        source: &PackedVectorSource,
    ) -> PackedSimRun {
        assert_eq!(
            source.lanes(),
            self.sim.lanes(),
            "stimulus lane count does not match the packed testbench"
        );
        let sim = &mut self.sim;
        sim.initialize_registers(Value::Zero);
        for &input in self.netlist.inputs() {
            if input != self.clock {
                sim.set(input, PackedValue::splat(Value::Zero));
            }
        }
        sim.set(self.clock, PackedValue::splat(Value::Zero));
        sim.settle(1_000_000);
        let start = sim.time();

        let input_offset = period_ps * 0.05;
        for cycle in 0..cycles {
            let base = start + (cycle as f64 + 1.0) * period_ps;
            sim.schedule(self.clock, PackedValue::splat(Value::One), base);
            sim.schedule(
                self.clock,
                PackedValue::splat(Value::Zero),
                base + period_ps * 0.5,
            );
            for (net, value) in source.packed_vector_for(cycle) {
                sim.schedule(net, value, base + input_offset);
            }
            sim.run_until(base + period_ps - 1.0);
        }
        let end = start + (cycles as f64 + 1.0) * period_ps;
        sim.run_until(end);

        self.sim.into_run(cycles)
    }
}

/// The packed sibling of [`crate::AsyncTestbench`]: drives a latch-based
/// (desynchronized) netlist under an externally supplied enable schedule
/// (broadcast across lanes) and per-lane packed data inputs.
#[derive(Debug)]
pub struct PackedAsyncTestbench<'a> {
    netlist: &'a Netlist,
    sim: PackedSimulator<'a>,
}

impl<'a> PackedAsyncTestbench<'a> {
    /// Creates a packed testbench for a latch-based `netlist` with `lanes`
    /// stimulus lanes.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Self {
        Self {
            netlist,
            sim: PackedSimulator::new(netlist, library, config, lanes),
        }
    }

    /// Like [`PackedAsyncTestbench::new`] but over a previously compiled
    /// `model` — the campaign fast path: all 64 lanes of every campaign
    /// point bind onto one compiled latch datapath.
    pub fn with_model(netlist: &'a Netlist, model: Arc<CompiledModel>, lanes: usize) -> Self {
        Self {
            netlist,
            sim: PackedSimulator::with_model(netlist, model, lanes),
        }
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs the netlist under the given enable `schedule` (broadcast) and
    /// timed packed data `inputs` until `duration_ps`. The testbench is
    /// consumed: its cursor's counters and captures move into the returned
    /// run.
    ///
    /// The drive script matches the scalar [`crate::AsyncTestbench::run`]
    /// exactly: `inputs` must be listed in the same order the scalar harness
    /// would receive them, as the stable time sort preserves that order
    /// among equal-time events (it fixes the event sequence numbers).
    pub fn run(
        mut self,
        duration_ps: f64,
        iterations: usize,
        schedule: &EnableSchedule,
        inputs: &[(f64, NetId, PackedValue)],
    ) -> PackedSimRun {
        let sim = &mut self.sim;
        sim.initialize_registers(Value::Zero);
        for &input in self.netlist.inputs() {
            sim.set(input, PackedValue::splat(Value::Zero));
        }
        sim.settle(1_000_000);

        for (t, net, value) in schedule.sorted_events() {
            sim.schedule(net, PackedValue::splat(value), t.max(sim.time()));
        }
        let mut sorted_inputs: Vec<&(f64, NetId, PackedValue)> = inputs.iter().collect();
        sorted_inputs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(t, net, value) in sorted_inputs {
            sim.schedule(net, value, t.max(sim.time()));
        }
        sim.run_until(duration_ps);

        self.sim.into_run(iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SyncTestbench;
    use crate::stimulus::VectorSource;
    use desync_netlist::value::{evaluate, evaluate_c_element, evaluate_latch};

    const VALUES: [Value; 3] = [Value::Zero, Value::One, Value::X];

    /// Packs one scalar combination per lane (combination `lane`, base-3
    /// digits indexing `VALUES`), returning per-lane scalar inputs alongside.
    fn pack_combinations(arity: usize) -> (Vec<PackedValue>, Vec<Vec<Value>>) {
        let combos = 3usize.pow(arity as u32);
        assert!(combos <= MAX_LANES);
        let mut packed = vec![PackedValue::splat(Value::Zero); arity];
        let mut scalar = Vec::with_capacity(combos);
        for lane in 0..combos {
            let mut digits = lane;
            let mut row = Vec::with_capacity(arity);
            for input in packed.iter_mut() {
                let value = VALUES[digits % 3];
                digits /= 3;
                input.set_lane(lane, value);
                row.push(value);
            }
            scalar.push(row);
        }
        // Unused tail lanes replicate the last combination.
        for input in packed.iter_mut() {
            let last = input.lane(combos - 1);
            for lane in combos..MAX_LANES {
                input.set_lane(lane, last);
            }
        }
        (packed, scalar)
    }

    #[test]
    fn encoding_round_trips_every_value() {
        for &value in &VALUES {
            let splat = PackedValue::splat(value);
            for lane in 0..MAX_LANES {
                assert_eq!(splat.lane(lane), value);
            }
            let mut one_lane = PackedValue::splat(Value::Zero);
            one_lane.set_lane(17, value);
            assert_eq!(one_lane.lane(17), value);
            assert_eq!(one_lane.lane(16), Value::Zero);
        }
        let mut v = PackedValue::all_x();
        v.set_lane(3, Value::One);
        v.set_lane(3, Value::Zero);
        assert_eq!(v.lane(3), Value::Zero);
        assert_eq!(v.lane(4), Value::X);
    }

    #[test]
    fn masks_partition_the_lanes() {
        let mut v = PackedValue::splat(Value::Zero);
        v.set_lane(1, Value::One);
        v.set_lane(2, Value::X);
        assert_eq!(v.ones_mask(), 0b010);
        assert_eq!(v.x_mask(), 0b100);
        assert_eq!(v.zeros_mask() & 0b111, 0b001);
        assert_eq!(v.known_mask() & 0b111, 0b011);
        assert_eq!(v.diff_mask(v), 0);
        let w = PackedValue::splat(Value::Zero);
        assert_eq!(v.diff_mask(w), 0b110);
        assert_eq!(v.eq_mask(w) & 0b111, 0b001);
    }

    #[test]
    fn word_ops_match_scalar_truth_tables_exhaustively() {
        let (packed, scalar) = pack_combinations(2);
        let (a, b) = (packed[0], packed[1]);
        for (lane, row) in scalar.iter().enumerate() {
            let (x, y) = (row[0], row[1]);
            assert_eq!(a.not().lane(lane), x.not(), "not {x:?}");
            assert_eq!(a.and(b).lane(lane), x.and(y), "and {x:?} {y:?}");
            assert_eq!(a.or(b).lane(lane), x.or(y), "or {x:?} {y:?}");
            assert_eq!(a.xor(b).lane(lane), x.xor(y), "xor {x:?} {y:?}");
        }
    }

    #[test]
    fn packed_evaluate_matches_scalar_for_every_kind_and_combination() {
        use CellKind::*;
        for kind in [
            Const0, Const1, Buf, Delay, Not, And, Nand, Or, Nor, Xor, Xnor, Mux2, AndOrInv,
        ] {
            for arity in 0..=3usize {
                let (packed, scalar) = pack_combinations(arity);
                let result = packed_evaluate(kind, &packed);
                for (lane, row) in scalar.iter().enumerate() {
                    assert_eq!(
                        result.lane(lane),
                        evaluate(kind, row),
                        "{kind:?} arity {arity} inputs {row:?}"
                    );
                }
            }
        }
        // AndOrInv takes four inputs: exercise the full arity separately
        // (3^4 = 81 combinations, split over two words).
        for base in [0usize, 64] {
            let mut packed = vec![PackedValue::splat(Value::Zero); 4];
            let mut scalar = Vec::new();
            for slot in 0..MAX_LANES.min(81 - base) {
                let mut digits = base + slot;
                let mut row = Vec::with_capacity(4);
                for input in packed.iter_mut() {
                    let value = VALUES[digits % 3];
                    digits /= 3;
                    input.set_lane(slot, value);
                    row.push(value);
                }
                scalar.push(row);
            }
            let result = packed_evaluate(CellKind::AndOrInv, &packed);
            for (slot, row) in scalar.iter().enumerate() {
                assert_eq!(result.lane(slot), evaluate(CellKind::AndOrInv, row));
            }
        }
    }

    #[test]
    fn packed_c_element_matches_scalar() {
        for &previous in &VALUES {
            let prev = PackedValue::splat(previous);
            for arity in 0..=3usize {
                let (packed, scalar) = pack_combinations(arity);
                let result = packed_evaluate_c_element(&packed, prev);
                for (lane, row) in scalar.iter().enumerate() {
                    assert_eq!(
                        result.lane(lane),
                        evaluate_c_element(row, previous),
                        "c-element inputs {row:?} previous {previous:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_latch_matches_scalar() {
        for transparent_high in [false, true] {
            let (packed, scalar) = pack_combinations(3);
            let (d, en, stored) = (packed[0], packed[1], packed[2]);
            let result = packed_evaluate_latch(d, en, stored, transparent_high);
            for (lane, row) in scalar.iter().enumerate() {
                assert_eq!(
                    result.lane(lane),
                    evaluate_latch(row[0], row[1], row[2], transparent_high),
                    "latch d={:?} en={:?} stored={:?} th={transparent_high}",
                    row[0],
                    row[1],
                    row[2],
                );
            }
        }
    }

    #[test]
    fn packed_sync_testbench_lanes_match_scalar_runs() {
        // A toggler with a data input: in -> r0 -> r1, watched waveforms.
        let mut n = Netlist::new("shift2");
        let clk = n.add_input("clk");
        let din = n.add_input("din");
        let q0 = n.add_net("q0");
        let q1 = n.add_output("q1");
        n.add_dff("r0", din, clk, q0).unwrap();
        n.add_dff("r1", q0, clk, q1).unwrap();
        let library = CellLibrary::generic_90nm();

        let lanes: Vec<VectorSource> = (0..5)
            .map(|seed| VectorSource::pseudo_random(vec![din], seed as u64 + 1))
            .collect();
        let packed_source = PackedVectorSource::interleave(lanes.clone());

        let mut packed_tb =
            PackedSyncTestbench::new(&n, &library, SimConfig::default(), lanes.len()).unwrap();
        packed_tb.watch_named(&["clk", "q1"]);
        let packed_run = packed_tb.run(12, 4_000.0, &packed_source);
        assert_eq!(packed_run.lanes(), lanes.len());
        assert!(packed_run.word_committed_events > 0);
        assert!(packed_run.lane_committed_events() >= packed_run.word_committed_events);

        for (lane, source) in lanes.iter().enumerate() {
            let mut tb = SyncTestbench::new(&n, &library, SimConfig::default()).unwrap();
            tb.watch_named(&["clk", "q1"]);
            let scalar_run = tb.run(12, 4_000.0, source);
            assert_eq!(packed_run.lane(lane), scalar_run, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn zero_lanes_is_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let library = CellLibrary::generic_90nm();
        let _ = PackedSimulator::new(&n, &library, SimConfig::default(), 0);
    }
}
