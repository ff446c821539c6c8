//! Bit-parallel (packed) simulation: 64 independent stimulus lanes per word.
//!
//! Classic parallel-pattern simulation observes that under matched delays the
//! event *schedule* of a gate-level run is stimulus-independent — only the
//! payloads differ between two runs of the same netlist. The packed width
//! exploits this: each net carries a [`PackedValue`] of 64 independent
//! 4-state lanes encoded as two `u64` bit-planes, every [`CellKind`] is
//! evaluated with branch-free word-wide logic, and one pass over the event
//! queue advances all 64 stimulus vectors at once. The cursor and the
//! testbench scripts are the crate's one kernel ([`Simulator`]) at this
//! width; this module holds what is specific to it: the encoding, its
//! [`Lanes`] impl and the packed run type.
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
//! [`Lanes::select`]). Every operator is verified lane-for-lane against
//! the scalar [`desync_netlist::value`] truth tables by exhaustive unit
//! tests.
//!
//! # Packed runs
//!
//! A finished run stays packed ([`PackedSimRun`]): one capture stream per
//! register whose captures carry the mask of lanes that took them, the
//! cursor's bit-plane switching counters ([`PackedCounters`]), and the raw
//! packed change records of the watched nets. When every capture of a
//! register was taken by all live lanes ([`PackedStream::is_uniform`] —
//! true whenever the testbench's broadcast clock or enables reach the
//! register without data-dependent gating), the lanes' scalar streams line
//! up position by position, and one [`Lanes::diff_mask`] per capture pair
//! compares all lanes at once. [`PackedSimRun::lane`] builds one lane's
//! scalar [`SimRun`] only when a caller asks for it, bit-identical to the
//! scalar run (see the
//! [bit-identity contract](crate::engine#bit-identity-contract)).
//!
//! # Bit-plane counters
//!
//! A packed cursor counts switching activity in eight `u64` planes per
//! net, net-major: bit *l* of plane *k* is bit *k* of lane *l*'s toggle
//! count on the net. A committed event adds its toggled lanes with a
//! ripple carry through the net's planes (one cache line): eight word-wide
//! half additions and no branch, whatever the number of lanes. A count
//! past 255 carries into a wide per-lane table, allocated on the first
//! carry. Changes out of `X`, which are committed events but no switching
//! activity, are counted per lane; a lane's committed events are its
//! transitions plus its `X` exits, and the run's total is a popcount sum.
//! [`PackedSimRun`] keeps the planes as they are, and
//! [`PackedSimRun::lane`] decodes one lane's counts.
//!
//! Lane counts below 64 are supported: the packed stimulus replicates its
//! last lane into the unused tail lanes (so they never create extra events)
//! and all per-lane accounting is masked to the live lanes.

use crate::activity::Activity;
use crate::engine::{Lanes, Simulator};
use crate::harness::{value_to_word, SimRun};
use crate::stimulus::PackedVectorSource;
use crate::waveform::{Waveform, WaveformSet};
use desync_mg::FlowTrace;
use desync_netlist::{CellId, CellKind, NetId, Value};
use serde::{Deserialize, Serialize};

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

    /// Mask of lanes holding a known (non-`X`) value.
    pub fn known_mask(self) -> u64 {
        !self.hi | self.lo
    }

    /// Mask of lanes where `self` and `other` hold the same value
    /// (`X == X` included — exact equality, not Kleene equivalence).
    pub fn eq_mask(self, other: Self) -> u64 {
        !self.diff_mask(other)
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

impl Lanes for PackedValue {
    type Source = PackedVectorSource;
    type Run = PackedSimRun;
    type Counters = PackedCounters;
    const WIDTH: usize = MAX_LANES;

    fn splat(value: Value) -> Self {
        PackedValue::splat(value)
    }

    fn ones_mask(self) -> u64 {
        self.lo
    }

    fn zeros_mask(self) -> u64 {
        !self.hi
    }

    fn x_mask(self) -> u64 {
        self.hi & !self.lo
    }

    fn diff_mask(self, other: Self) -> u64 {
        (self.lo ^ other.lo) | (self.hi ^ other.hi)
    }

    fn select(mask: u64, then: Self, other: Self) -> Self {
        Self {
            lo: (mask & then.lo) | (!mask & other.lo),
            hi: (mask & then.hi) | (!mask & other.hi),
        }
    }

    /// Branch-free: every kind is a few word operations on the planes.
    fn evaluate(kind: CellKind, inputs: &[Self]) -> Self {
        let input = |i: usize| inputs.get(i).copied().unwrap_or_else(PackedValue::all_x);
        match kind {
            CellKind::Const0 => PackedValue::splat(Value::Zero),
            CellKind::Const1 => PackedValue::splat(Value::One),
            CellKind::Buf | CellKind::Delay => input(0),
            CellKind::Not => input(0).not(),
            CellKind::And => inputs
                .iter()
                .fold(PackedValue::splat(Value::One), |acc, &v| acc.and(v)),
            CellKind::Nand => Self::evaluate(CellKind::And, inputs).not(),
            CellKind::Or => inputs
                .iter()
                .fold(PackedValue::splat(Value::Zero), |acc, &v| acc.or(v)),
            CellKind::Nor => Self::evaluate(CellKind::Or, inputs).not(),
            CellKind::Xor => inputs
                .iter()
                .fold(PackedValue::splat(Value::Zero), |acc, &v| acc.xor(v)),
            CellKind::Xnor => Self::evaluate(CellKind::Xor, inputs).not(),
            CellKind::Mux2 => {
                let (sel, a, b) = (input(0), input(1), input(2));
                // Known selector lanes route; unknown ones resolve to the data
                // only where both data inputs agree exactly (else X).
                let routed = Self::select(sel.ones_mask(), b, a);
                let unknown_sel = Self::select(a.eq_mask(b), a, PackedValue::all_x());
                Self::select(sel.known_mask(), routed, unknown_sel)
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

    /// Lanes with a transparent enable follow `data`, opaque lanes hold
    /// `stored`, and lanes with an unknown enable resolve to `stored` only
    /// where `data` already equals it (else `X`).
    fn evaluate_latch(data: Self, enable: Self, stored: Self, transparent_high: bool) -> Self {
        let transparent = if transparent_high {
            enable.ones_mask()
        } else {
            enable.zeros_mask()
        };
        let known = Self::select(transparent, data, stored);
        let unknown_en = Self::select(data.eq_mask(stored), stored, PackedValue::all_x());
        Self::select(enable.known_mask(), known, unknown_en)
    }

    /// Lanes where all inputs agree on a known value take it, the rest hold
    /// `previous`.
    fn evaluate_c_element(inputs: &[Self], previous: Self) -> Self {
        let Some((&first, rest)) = inputs.split_first() else {
            return previous;
        };
        let agree = rest.iter().fold(!0u64, |acc, &v| acc & v.eq_mask(first));
        Self::select(agree & first.known_mask(), first, previous)
    }

    fn source_lanes(source: &PackedVectorSource) -> usize {
        source.lanes()
    }

    fn counters(nets: usize, lanes: usize) -> PackedCounters {
        PackedCounters {
            planes: vec![NetPlanes::default(); nets],
            carries: Vec::new(),
            x_exits: vec![0; lanes],
        }
    }

    /// Adds `toggled` to the net's planes with a ripple carry through all
    /// eight: an exit at the first zero carry mispredicts often enough to
    /// cost more than the planes it skips. Only an event on which some lane
    /// leaves `X` walks its lanes. Inlinable across crates, since callers
    /// monomorphize the commit loop in their own crate.
    #[inline]
    fn count(counters: &mut PackedCounters, net: usize, toggled: u64, x_exits: u64) {
        let mut carry = toggled;
        for plane in &mut counters.planes[net].0 {
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
        if carry != 0 {
            counters.carry_out(net, carry);
        }
        let mut exits = x_exits;
        while exits != 0 {
            counters.x_exits[exits.trailing_zeros() as usize] += 1;
            exits &= exits - 1;
        }
    }

    fn vector_for(source: &PackedVectorSource, cycle: usize) -> Vec<(NetId, Self)> {
        source.packed_vector_for(cycle)
    }

    /// Builds the [`PackedSimRun`]: the captures grouped into one packed
    /// stream per register (sorted by register name), the bit-plane
    /// counters as the cursor kept them, and the raw packed change records
    /// of the watched nets. Nothing is extracted or decoded per lane;
    /// [`PackedSimRun::lane`] does that on demand.
    fn finish(sim: Simulator<'_, Self>, cycles: usize) -> PackedSimRun {
        let netlist = sim.netlist;
        let mut per_cell: Vec<Vec<(u64, PackedValue)>> = vec![Vec::new(); netlist.num_cells()];
        for cap in &sim.captures {
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
        let waves = sim
            .waves
            .into_iter()
            .map(|(net, changes)| (netlist.net(net).name.to_string(), changes))
            .collect();
        PackedSimRun {
            lanes: sim.lanes,
            streams,
            counters: sim.counters,
            waves,
            cycles,
            duration_ps: sim.time,
            word_committed_events: sim.committed,
        }
    }
}

/// Mask of the low `lanes` lanes of a word.
pub(crate) fn live_mask(lanes: usize) -> u64 {
    if lanes == MAX_LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Number of bit planes per net: counts up to 255 stay in the planes.
const PLANES: usize = 8;

/// One net's eight bit planes: bit `l` of plane `k` is bit `k` of lane
/// `l`'s toggle count on the net. Aligned so that a net is one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[repr(align(64))]
struct NetPlanes([u64; PLANES]);

/// The switching counters of a packed cursor: eight bit planes per net,
/// net-major, the wide table for counts past 255 and the per-lane `X` exits
/// (see the [module documentation](self#bit-plane-counters)). Only
/// [`PackedSimRun`] reads them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedCounters {
    /// Per-net toggle counts modulo 256 (see [`NetPlanes`]).
    planes: Vec<NetPlanes>,
    /// Carries out of the top plane, `[net * 64 + lane]`, each worth 256
    /// toggles; empty until the first carry.
    carries: Vec<u64>,
    /// Per-lane changes out of `X`.
    x_exits: Vec<u64>,
}

impl PackedCounters {
    /// Records the lanes of `carry`, whose counts on `net` wrapped past
    /// 255, in the wide table.
    #[cold]
    fn carry_out(&mut self, net: usize, mut carry: u64) {
        if self.carries.is_empty() {
            self.carries = vec![0; self.planes.len() * MAX_LANES];
        }
        while carry != 0 {
            self.carries[net * MAX_LANES + carry.trailing_zeros() as usize] += 1;
            carry &= carry - 1;
        }
    }

    /// Lane `lane`'s toggle count on every net, in net order.
    fn lane_transitions(&self, lane: usize) -> Vec<u64> {
        (self.planes.iter().enumerate())
            .map(|(net, NetPlanes(planes))| {
                let low = (planes.iter().enumerate())
                    .fold(0, |count, (k, plane)| count | ((plane >> lane) & 1) << k);
                let high = self.carries.get(net * MAX_LANES + lane).copied();
                low + (high.unwrap_or(0) << PLANES)
            })
            .collect()
    }

    /// Committed events summed over the lanes: every plane bit weighted by
    /// its place value, the carries, and the `X` exits.
    fn events(&self) -> u64 {
        let mut low = 0;
        for NetPlanes(planes) in &self.planes {
            for (k, plane) in planes.iter().enumerate() {
                low += u64::from(plane.count_ones()) << k;
            }
        }
        low + (self.carries.iter().sum::<u64>() << PLANES) + self.x_exits.iter().sum::<u64>()
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
/// capture stream per register, the bit-plane switching counters, the raw
/// packed change records of the watched nets, and the word-level work the
/// kernel actually did.
///
/// Equivalence campaigns compare lanes directly on the packed streams. A
/// lane's scalar [`SimRun`] is built only when a caller asks for it through
/// [`PackedSimRun::lane`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedSimRun {
    lanes: usize,
    /// Per-register capture streams, sorted by register name.
    streams: Vec<PackedStream>,
    /// The cursor's bit-plane counters, kept as they are: a lane's per-net
    /// transitions are decoded by [`PackedSimRun::lane`], and its committed
    /// events are those transitions plus its `X` exits.
    counters: PackedCounters,
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
        let transitions = self.counters.lane_transitions(lane);
        let committed_events = transitions.iter().sum::<u64>() + self.counters.x_exits[lane];
        SimRun {
            flow_trace,
            activity: Activity {
                transitions,
                duration_ps: self.duration_ps,
            },
            waveforms,
            cycles: self.cycles,
            duration_ps: self.duration_ps,
            committed_events: committed_events as usize,
        }
    }

    /// Total scalar-equivalent committed events across all lanes — what 64
    /// scalar runs would have committed; the numerator of the packed
    /// speedup.
    pub fn lane_committed_events(&self) -> usize {
        self.counters.events() as usize
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::harness::SyncBench;
    use crate::stimulus::VectorSource;
    use desync_netlist::value::{evaluate, evaluate_c_element, evaluate_latch};
    use desync_netlist::{CellLibrary, Netlist};

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
                let result = PackedValue::evaluate(kind, &packed);
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
            let result = PackedValue::evaluate(CellKind::AndOrInv, &packed);
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
                let result = PackedValue::evaluate_c_element(&packed, prev);
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
            let result = PackedValue::evaluate_latch(d, en, stored, transparent_high);
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
            SyncBench::<PackedValue>::new(&n, &library, SimConfig::default(), lanes.len()).unwrap();
        packed_tb.watch_named(&["clk", "q1"]);
        let packed_run = packed_tb.run(12, 4_000.0, &packed_source);
        assert_eq!(packed_run.lanes(), lanes.len());
        assert!(packed_run.word_committed_events > 0);
        assert!(packed_run.lane_committed_events() >= packed_run.word_committed_events);

        for (lane, source) in lanes.iter().enumerate() {
            let mut tb = SyncBench::<Value>::new(&n, &library, SimConfig::default()).unwrap();
            tb.watch_named(&["clk", "q1"]);
            let scalar_run = tb.run(12, 4_000.0, source);
            assert_eq!(packed_run.lane(lane), scalar_run, "lane {lane}");
        }
    }

    /// The counters' rare paths against scalar runs. Over 320 cycles every
    /// lane's count on the toggler (and on the clock) carries out of the
    /// eighth plane into the wide table, and each lane's stimulus holds `X`
    /// in cycles of its own, so lanes leave `X` at different times.
    #[test]
    fn carries_and_x_exits_match_scalar_runs() {
        const CYCLES: usize = 320;
        let mut n = Netlist::new("toggle_x");
        let clk = n.add_input("clk");
        let din = n.add_input("din");
        let t = n.add_net("t");
        let nt = n.add_net("nt");
        let q0 = n.add_net("q0");
        let w = n.add_net("w");
        let q1 = n.add_output("q1");
        n.add_gate("inv", CellKind::Not, &[t], nt).unwrap();
        n.add_dff("rt", nt, clk, t).unwrap();
        n.add_dff("r0", din, clk, q0).unwrap();
        n.add_gate("mix", CellKind::Xor, &[q0, t], w).unwrap();
        n.add_dff("r1", w, clk, q1).unwrap();
        let library = CellLibrary::generic_90nm();

        for lanes in [5, MAX_LANES] {
            let sources: Vec<VectorSource> = (0..lanes)
                .map(|lane| {
                    let period = 3 + lane % 7;
                    let vectors = (0..period).map(|cycle| {
                        let value = if cycle == lane % period {
                            Value::X
                        } else {
                            Value::from_bool((cycle + lane) % 2 == 0)
                        };
                        vec![(din, value)]
                    });
                    VectorSource::sequence(vectors.collect())
                })
                .collect();
            let stimulus = PackedVectorSource::interleave(sources.clone());
            let packed = SyncBench::<PackedValue>::new(&n, &library, SimConfig::default(), lanes)
                .unwrap()
                .run(CYCLES, 4_000.0, &stimulus);
            assert!(!packed.counters.carries.is_empty(), "{lanes} lanes");
            let mut lane_events = 0;
            for (lane, source) in sources.iter().enumerate() {
                let scalar = SyncBench::<Value>::new(&n, &library, SimConfig::default())
                    .unwrap()
                    .run(CYCLES, 4_000.0, source);
                assert!(scalar.activity.transitions_on(t) > 255, "lane {lane}");
                assert_eq!(packed.lane(lane), scalar, "{lanes} lanes, lane {lane}");
                lane_events += scalar.committed_events;
            }
            assert_eq!(packed.lane_committed_events(), lane_events, "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn zero_lanes_is_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.mark_output(a);
        let library = CellLibrary::generic_90nm();
        let _ = Simulator::<PackedValue>::new(&n, &library, SimConfig::default(), 0);
    }
}
