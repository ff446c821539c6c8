//! Simulation harnesses: a clocked testbench for synchronous netlists and a
//! schedule-driven testbench for desynchronized (latch-based) netlists.
//!
//! Each is one drive script generic over the lane width ([`Lanes`]): the
//! scalar (`Value`) and packed ([`PackedValue`]) [`SyncBench`] /
//! [`AsyncBench`] are the same script at two widths, with control nets
//! broadcast across lanes. So each lane of
//! a packed run is bit-identical to a scalar run with that lane's stimulus.

use crate::activity::Activity;
use crate::engine::{Lanes, SimConfig, Simulator};
use crate::model::CompiledModel;
use crate::packed::PackedValue;
use crate::waveform::WaveformSet;
use desync_mg::FlowTrace;
use desync_netlist::{CellLibrary, NetId, Netlist, NetlistError, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The observable result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRun {
    /// Per-register streams of captured values (for flow equivalence).
    pub flow_trace: FlowTrace,
    /// Switching-activity counters (for the power model).
    pub activity: Activity,
    /// Waveforms of watched nets.
    pub waveforms: WaveformSet,
    /// Number of clock cycles (synchronous) or scheduled iterations
    /// (asynchronous) executed.
    pub cycles: usize,
    /// Total simulated time in picoseconds.
    pub duration_ps: f64,
    /// Total number of events committed by the kernel during the run (the
    /// denominator of events/second throughput figures).
    pub committed_events: usize,
}

impl SimRun {
    /// Average energy-relevant event count per nanosecond; a quick proxy for
    /// activity density used in reports.
    pub fn transitions_per_ns(&self) -> f64 {
        if self.duration_ps <= 0.0 {
            return 0.0;
        }
        self.activity.total_transitions() as f64 / (self.duration_ps / 1000.0)
    }
}

/// The flow-trace word a captured `value` is recorded as (`Zero` = 0,
/// `One` = 1, `X` = 2).
pub fn value_to_word(value: Value) -> u64 {
    match value {
        Value::Zero => 0,
        Value::One => 1,
        Value::X => 2,
    }
}

/// A clocked testbench for flip-flop based (synchronous) netlists, at lane
/// width `L`: one stimulus per run at `Value`, up to 64 lanes at
/// [`PackedValue`].
///
/// The testbench drives the single clock net with a 50 % duty cycle,
/// applies one input vector per cycle shortly after the rising edge, and
/// records every flip-flop capture. [`run`](SyncBench::run) consumes the
/// testbench, so two runs can never merge their captures and counters into
/// one result:
///
/// ```compile_fail
/// # use desync_netlist::{CellKind, CellLibrary, Netlist, Value};
/// # use desync_sim::{SimConfig, SyncBench, VectorSource};
/// # let mut n = Netlist::new("toggler");
/// # let clk = n.add_input("clk");
/// # let q = n.add_output("q");
/// # let d = n.add_net("d");
/// # n.add_gate("inv", CellKind::Not, &[q], d).unwrap();
/// # n.add_dff("r", d, clk, q).unwrap();
/// let library = CellLibrary::generic_90nm();
/// let stimulus = VectorSource::constant(vec![]);
/// let tb = SyncBench::<Value>::new(&n, &library, SimConfig::default()).unwrap();
/// let first = tb.run(10, 4_000.0, &stimulus);
/// let second = tb.run(10, 4_000.0, &stimulus); // error: use of moved `tb`
/// ```
#[derive(Debug)]
pub struct SyncBench<'a, L: Lanes> {
    sim: Simulator<'a, L>,
    clock: NetId,
}

impl<'a> SyncBench<'a, Value> {
    /// A scalar testbench over a private compile of `netlist`; errors as
    /// [`SyncBench::with_lanes`].
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
    ) -> Result<Self, NetlistError> {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, 1)
    }
}

impl<'a> SyncBench<'a, PackedValue> {
    /// A packed testbench with `lanes` stimulus lanes over a private compile
    /// of `netlist`; errors as [`SyncBench::with_lanes`].
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Result<Self, NetlistError> {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, lanes)
    }
}

impl<'a, L: Lanes> SyncBench<'a, L> {
    /// Creates a testbench with `lanes` stimulus lanes (1 for a scalar
    /// testbench) over a compiled `model` of `netlist`, so repeated
    /// testbenches share one topology compilation (see [`CompiledModel`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist does not have
    /// exactly one clock net. Panics as [`Simulator::with_lanes`].
    pub fn with_lanes(
        netlist: &'a Netlist,
        model: Arc<CompiledModel>,
        lanes: usize,
    ) -> Result<Self, NetlistError> {
        Ok(Self {
            clock: netlist.single_clock()?,
            sim: Simulator::with_lanes(netlist, model, lanes),
        })
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs `cycles` clock cycles with period `period_ps`, applying one
    /// vector from `source` per cycle, and returns the collected results.
    /// The testbench is consumed: its cursor's counters and captures move
    /// into the returned run.
    ///
    /// Registers are initialized to 0 and all non-clock primary inputs start
    /// at 0. Inputs for cycle *k* are applied shortly after rising edge *k*
    /// and are captured by the flip-flops at rising edge *k + 1*.
    ///
    /// # Panics
    ///
    /// Panics if `source` does not carry exactly this testbench's lane
    /// count.
    pub fn run(mut self, cycles: usize, period_ps: f64, source: &L::Source) -> L::Run {
        assert_eq!(
            L::source_lanes(source),
            self.sim.lanes,
            "stimulus lane count does not match the testbench"
        );
        let sim = &mut self.sim;
        let (zero, one) = (L::splat(Value::Zero), L::splat(Value::One));
        sim.initialize_registers(Value::Zero);
        for &input in sim.netlist.inputs() {
            if input != self.clock {
                sim.set(input, zero);
            }
        }
        sim.set(self.clock, zero);
        sim.settle(1_000_000);
        // The clock grid starts after the reset state has fully settled, so
        // the first rising edge can never race the initialization wave (the
        // settling time exceeds one period for register-dominated netlists
        // with very little logic).
        let start = sim.time();

        let input_offset = period_ps * 0.05;
        for cycle in 0..cycles {
            // Schedule relative to a fixed grid to keep the edges periodic.
            let base = start + (cycle as f64 + 1.0) * period_ps;
            sim.schedule(self.clock, one, base);
            sim.schedule(self.clock, zero, base + period_ps * 0.5);
            for (net, value) in L::vector_for(source, cycle) {
                sim.schedule(net, value, base + input_offset);
            }
            sim.run_until(base + period_ps - 1.0);
        }
        // Let the final cycle settle.
        let end = start + (cycles as f64 + 1.0) * period_ps;
        sim.run_until(end);

        self.sim.into_run(cycles)
    }
}

/// Absolute-time enable (or arbitrary control) events driving the latch
/// enables of a desynchronized netlist.
///
/// The desynchronization flow produces this schedule from the timed
/// marked-graph model of the controller network: each `a+` / `a-` firing
/// becomes a rising / falling event on the corresponding enable net.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnableSchedule {
    events: Vec<(f64, NetId, Value)>,
}

impl EnableSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event: `net` switches to `value` at `time_ps`.
    pub fn push(&mut self, time_ps: f64, net: NetId, value: Value) {
        self.events.push((time_ps, net, value));
    }

    /// All events, sorted by time.
    pub fn sorted_events(&self) -> Vec<(f64, NetId, Value)> {
        let mut v = self.events.clone();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last event, or 0 for an empty schedule.
    pub fn horizon_ps(&self) -> f64 {
        self.events.iter().map(|e| e.0).fold(0.0, f64::max)
    }
}

impl FromIterator<(f64, NetId, Value)> for EnableSchedule {
    fn from_iter<I: IntoIterator<Item = (f64, NetId, Value)>>(iter: I) -> Self {
        Self {
            events: iter.into_iter().collect(),
        }
    }
}

/// A testbench for desynchronized, latch-based netlists, at lane width `L`:
/// one stimulus per run at `Value`, up to 64 lanes at [`PackedValue`].
///
/// The latch-enable waveforms are supplied externally (from the timed
/// marked-graph model of the handshake controllers) and broadcast across
/// lanes; data inputs are applied as absolute-time events.
#[derive(Debug)]
pub struct AsyncBench<'a, L: Lanes> {
    sim: Simulator<'a, L>,
}

impl<'a> AsyncBench<'a, Value> {
    /// A scalar testbench over a private compile of `netlist`.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary, config: SimConfig) -> Self {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, 1)
    }
}

impl<'a> AsyncBench<'a, PackedValue> {
    /// A packed testbench with `lanes` stimulus lanes over a private compile
    /// of `netlist`.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
        lanes: usize,
    ) -> Self {
        let model = Arc::new(CompiledModel::compile(netlist, library, config));
        Self::with_lanes(netlist, model, lanes)
    }
}

impl<'a, L: Lanes> AsyncBench<'a, L> {
    /// Creates a testbench with `lanes` stimulus lanes (1 for a scalar
    /// testbench) over a compiled `model` of `netlist` — the sweep-point
    /// fast path: every protocol × margin point of a verification sweep
    /// simulates the same latch datapath, so they all bind their schedules
    /// onto one [`CompiledModel`]. Panics as [`Simulator::with_lanes`].
    pub fn with_lanes(netlist: &'a Netlist, model: Arc<CompiledModel>, lanes: usize) -> Self {
        Self {
            sim: Simulator::with_lanes(netlist, model, lanes),
        }
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs the netlist under the given enable `schedule` and timed data
    /// `inputs` until `duration_ps`, returning the collected results. The
    /// testbench is consumed: its cursor's counters and captures move into
    /// the returned run.
    ///
    /// Registers are initialized to 0 and all primary inputs not driven by
    /// the schedule start at 0. `iterations` is recorded in the result as
    /// the logical cycle count (the caller knows how many handshake
    /// iterations the schedule encodes). The stable time sort of `inputs`
    /// keeps their order among equal times, which fixes the order in which
    /// equal-time events pop: list a packed run's inputs in the order a
    /// scalar run would receive them.
    pub fn run(
        mut self,
        duration_ps: f64,
        iterations: usize,
        schedule: &EnableSchedule,
        inputs: &[(f64, NetId, L)],
    ) -> L::Run {
        let sim = &mut self.sim;
        sim.initialize_registers(Value::Zero);
        for &input in sim.netlist.inputs() {
            sim.set(input, L::splat(Value::Zero));
        }
        sim.settle(1_000_000);

        for (t, net, value) in schedule.sorted_events() {
            sim.schedule(net, L::splat(value), t.max(sim.time()));
        }
        let mut sorted_inputs: Vec<&(f64, NetId, L)> = inputs.iter().collect();
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
    use crate::stimulus::VectorSource;
    use desync_netlist::CellKind;

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    /// A 1-bit toggler: r.d = !r.q
    fn toggler() -> Netlist {
        let mut n = Netlist::new("toggler");
        let clk = n.add_input("clk");
        let q = n.add_net("q");
        let d = n.add_net("d");
        n.add_gate("inv", CellKind::Not, &[q], d).unwrap();
        n.add_dff("r", d, clk, q).unwrap();
        n.mark_output(q);
        n
    }

    #[test]
    fn sync_testbench_runs_toggler() {
        let n = toggler();
        let l = lib();
        let mut tb = SyncBench::<Value>::new(&n, &l, SimConfig::default()).unwrap();
        tb.watch_named(&["clk", "q"]);
        let run = tb.run(10, 4_000.0, &VectorSource::constant(vec![]));
        assert_eq!(run.cycles, 10);
        assert!(run.duration_ps > 0.0);
        let stream = run.flow_trace.stream("r").unwrap();
        assert_eq!(stream.len(), 10);
        // Register starts at 0, so captures alternate 1,0,1,0,...
        for (i, &v) in stream.iter().enumerate() {
            assert_eq!(v, if i % 2 == 0 { 1 } else { 0 }, "capture {i}");
        }
        assert!(run.activity.total_transitions() > 0);
        assert!(run.transitions_per_ns() > 0.0);
        assert!(run.waveforms.get("clk").unwrap().len() >= 19);
    }

    #[test]
    fn sync_testbench_requires_single_clock() {
        let n = Netlist::new("empty");
        let l = lib();
        assert!(SyncBench::<Value>::new(&n, &l, SimConfig::default()).is_err());
    }

    #[test]
    fn sync_pipeline_shifts_data() {
        // in -> r0 -> r1; stimulus alternates the input.
        let mut n = Netlist::new("shift2");
        let clk = n.add_input("clk");
        let din = n.add_input("din");
        let q0 = n.add_net("q0");
        let q1 = n.add_output("q1");
        n.add_dff("r0", din, clk, q0).unwrap();
        n.add_dff("r1", q0, clk, q1).unwrap();
        let l = lib();
        let tb = SyncBench::<Value>::new(&n, &l, SimConfig::default()).unwrap();
        let stim = VectorSource::sequence(vec![vec![(din, Value::One)], vec![(din, Value::Zero)]]);
        let run = tb.run(8, 4_000.0, &stim);
        let s0 = run.flow_trace.stream("r0").unwrap();
        let s1 = run.flow_trace.stream("r1").unwrap();
        // r1 sees r0's stream delayed by one cycle.
        assert_eq!(&s1[1..], &s0[..s0.len() - 1]);
    }

    #[test]
    fn async_testbench_latch_pipeline() {
        // Two latches in series, enables driven by an explicit schedule.
        let mut n = Netlist::new("latch2");
        let en0 = n.add_input("en0");
        let en1 = n.add_input("en1");
        let din = n.add_input("din");
        let q0 = n.add_net("q0");
        let q1 = n.add_output("q1");
        n.add_latch("l0", din, en0, q0, true).unwrap();
        n.add_latch("l1", q0, en1, q1, true).unwrap();
        let l = lib();
        let tb = AsyncBench::<Value>::new(&n, &l, SimConfig::default());
        let mut sched = EnableSchedule::new();
        // Alternate non-overlapping pulses: l0 open 1000-2000, l1 open 3000-4000, ...
        let mut inputs = Vec::new();
        for k in 0..4u32 {
            let base = 1000.0 + k as f64 * 4000.0;
            sched.push(base, en0, Value::One);
            sched.push(base + 1000.0, en0, Value::Zero);
            sched.push(base + 2000.0, en1, Value::One);
            sched.push(base + 3000.0, en1, Value::Zero);
            inputs.push((base - 500.0, din, Value::from_bool(k % 2 == 0)));
        }
        assert_eq!(sched.len(), 16);
        assert!(!sched.is_empty());
        assert!(sched.horizon_ps() > 0.0);
        let run = tb.run(20_000.0, 4, &sched, &inputs);
        let s0 = run.flow_trace.stream("l0").unwrap();
        let s1 = run.flow_trace.stream("l1").unwrap();
        assert_eq!(s0.len(), 4);
        assert_eq!(s1.len(), 4);
        // The second latch receives exactly the stream of the first.
        assert_eq!(s0, s1);
        assert_eq!(s0, &[1, 0, 1, 0]);
    }

    #[test]
    fn enable_schedule_from_iterator() {
        let sched: EnableSchedule = vec![(5.0, NetId(1), Value::One)].into_iter().collect();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.sorted_events()[0].1, NetId(1));
    }
}
