//! Simulation harnesses: a clocked testbench for synchronous netlists and a
//! schedule-driven testbench for desynchronized (latch-based) netlists.

use crate::activity::Activity;
use crate::engine::{EventSimulator, SimConfig};
use crate::model::CompiledModel;
use crate::stimulus::VectorSource;
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

/// Builds the per-register capture streams: captures are grouped by cell id
/// first (dense, chronological per cell), so each register's name is
/// resolved and cloned exactly once instead of once per captured value.
pub(crate) fn collect_flow_trace(
    netlist: &Netlist,
    captures: &[crate::engine::Capture],
) -> FlowTrace {
    let mut per_cell: Vec<Vec<u64>> = vec![Vec::new(); netlist.num_cells()];
    for cap in captures {
        per_cell[cap.cell.index()].push(value_to_word(cap.value));
    }
    let mut flow_trace = FlowTrace::new();
    for (index, values) in per_cell.into_iter().enumerate() {
        if !values.is_empty() {
            let name = netlist
                .cell(desync_netlist::CellId(index as u32))
                .name
                .to_string();
            flow_trace.extend_stream(name, values);
        }
    }
    flow_trace
}

/// A clocked testbench for flip-flop based (synchronous) netlists.
///
/// The testbench drives the single clock net with a 50 % duty cycle,
/// applies one input vector per cycle shortly after the rising edge, and
/// records every flip-flop capture.
#[derive(Debug)]
pub struct SyncTestbench<'a> {
    netlist: &'a Netlist,
    sim: EventSimulator<'a>,
    clock: NetId,
}

impl<'a> SyncTestbench<'a> {
    /// Creates a testbench for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist does not have
    /// exactly one clock net.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        config: SimConfig,
    ) -> Result<Self, NetlistError> {
        let clock = netlist.single_clock()?;
        Ok(Self {
            netlist,
            sim: EventSimulator::new(netlist, library, config),
            clock,
        })
    }

    /// Like [`SyncTestbench::new`] but over a previously compiled `model`
    /// of `netlist`, so repeated testbenches share one topology compilation
    /// (see [`CompiledModel`]). Runs are bit-identical to
    /// [`SyncTestbench::new`] with the model's compile inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist does not have
    /// exactly one clock net.
    pub fn with_model(
        netlist: &'a Netlist,
        model: Arc<CompiledModel>,
    ) -> Result<Self, NetlistError> {
        let clock = netlist.single_clock()?;
        Ok(Self {
            netlist,
            sim: EventSimulator::with_model(netlist, model),
            clock,
        })
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs `cycles` clock cycles with period `period_ps`, applying one
    /// vector from `source` per cycle, and returns the collected results.
    ///
    /// Registers are initialized to 0 and all non-clock primary inputs start
    /// at 0. Inputs for cycle *k* are applied shortly after rising edge *k*
    /// and are captured by the flip-flops at rising edge *k + 1*.
    pub fn run(&mut self, cycles: usize, period_ps: f64, source: &VectorSource) -> SimRun {
        let sim = &mut self.sim;
        sim.initialize_registers(Value::Zero);
        for &input in self.netlist.inputs() {
            if input != self.clock {
                sim.set(input, Value::Zero);
            }
        }
        sim.set(self.clock, Value::Zero);
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
            sim.schedule(self.clock, Value::One, base);
            sim.schedule(self.clock, Value::Zero, base + period_ps * 0.5);
            for (net, value) in source.vector_for(cycle) {
                sim.schedule(net, value, base + input_offset);
            }
            sim.run_until(base + period_ps - 1.0);
        }
        // Let the final cycle settle.
        let end = start + (cycles as f64 + 1.0) * period_ps;
        sim.run_until(end);

        SimRun {
            flow_trace: collect_flow_trace(self.netlist, &sim.captures),
            activity: sim.activity.clone(),
            waveforms: sim.waveforms(),
            cycles,
            duration_ps: sim.time(),
            committed_events: sim.committed_events(),
        }
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

/// A testbench for desynchronized, latch-based netlists.
///
/// The latch-enable waveforms are supplied externally (from the timed
/// marked-graph model of the handshake controllers); data inputs are applied
/// as absolute-time events.
#[derive(Debug)]
pub struct AsyncTestbench<'a> {
    netlist: &'a Netlist,
    sim: EventSimulator<'a>,
}

impl<'a> AsyncTestbench<'a> {
    /// Creates a testbench for a latch-based `netlist`.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary, config: SimConfig) -> Self {
        Self {
            netlist,
            sim: EventSimulator::new(netlist, library, config),
        }
    }

    /// Like [`AsyncTestbench::new`] but over a previously compiled `model`
    /// of `netlist` — the sweep-point fast path: every protocol × margin
    /// point of a verification sweep simulates the same latch datapath, so
    /// they all bind their schedules onto one [`CompiledModel`].
    pub fn with_model(netlist: &'a Netlist, model: Arc<CompiledModel>) -> Self {
        Self {
            netlist,
            sim: EventSimulator::with_model(netlist, model),
        }
    }

    /// Starts waveform recording for the named nets.
    pub fn watch_named(&mut self, names: &[&str]) {
        self.sim.watch_named(names);
    }

    /// Runs the netlist under the given enable `schedule` and timed data
    /// `inputs` until `duration_ps`, returning the collected results.
    ///
    /// Registers are initialized to 0 and all primary inputs not driven by
    /// the schedule start at 0. `iterations` is recorded in the result as
    /// the logical cycle count (the caller knows how many handshake
    /// iterations the schedule encodes).
    pub fn run(
        &mut self,
        duration_ps: f64,
        iterations: usize,
        schedule: &EnableSchedule,
        inputs: &[(f64, NetId, Value)],
    ) -> SimRun {
        let sim = &mut self.sim;
        sim.initialize_registers(Value::Zero);
        for &input in self.netlist.inputs() {
            sim.set(input, Value::Zero);
        }
        sim.settle(1_000_000);

        for (t, net, value) in schedule.sorted_events() {
            sim.schedule(net, value, t.max(sim.time()));
        }
        let mut sorted_inputs: Vec<&(f64, NetId, Value)> = inputs.iter().collect();
        sorted_inputs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(t, net, value) in sorted_inputs {
            sim.schedule(net, value, t.max(sim.time()));
        }
        sim.run_until(duration_ps);

        SimRun {
            flow_trace: collect_flow_trace(self.netlist, &sim.captures),
            activity: sim.activity.clone(),
            waveforms: sim.waveforms(),
            cycles: iterations,
            duration_ps: sim.time(),
            committed_events: sim.committed_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut tb = SyncTestbench::new(&n, &l, SimConfig::default()).unwrap();
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
        assert!(SyncTestbench::new(&n, &l, SimConfig::default()).is_err());
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
        let mut tb = SyncTestbench::new(&n, &l, SimConfig::default()).unwrap();
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
        let mut tb = AsyncTestbench::new(&n, &l, SimConfig::default());
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
