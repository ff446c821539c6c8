//! Golden-trace property tests of the rewritten simulation kernel.
//!
//! The event kernel in `desync-sim` was rewritten for speed (integer time
//! keys, a radix event queue that pops equal times in push order, CSR
//! topology, zero-allocation commit path) under a hard contract:
//! **observable results are bit-identical** to the previous
//! straightforward implementation. This suite keeps that previous
//! implementation alive as an in-test reference — an f64 binary heap, a
//! cloned per-net reader list and a per-evaluation input `Vec`, exactly the
//! shape of the pre-rewrite kernel — drives both kernels through the same
//! synchronous and desynchronized testbench scenarios over random circuits
//! and all three handshake protocols, and compares captures (values, cells
//! and times), per-net activity counters and recorded waveforms for exact
//! equality.

use desync_circuits::random::RandomCircuitConfig;
use desync_core::{DesyncFlow, DesyncOptions, Protocol};
use desync_netlist::value::{evaluate, evaluate_c_element, evaluate_latch};
use desync_netlist::{CellId, CellKind, CellLibrary, NetId, Netlist, Value};
use desync_sim::{EnableSchedule, SimConfig, Simulator, VectorSource, WaveformSet};
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashSet};

// ---- the reference kernel (pre-rewrite implementation, kept verbatim in
// ---- spirit: f64 heap ordering, cloned reader lists, per-eval gathers)

#[derive(Debug, Clone, Copy, PartialEq)]
struct RefEvent {
    time: f64,
    seq: u64,
    net: NetId,
    value: Value,
}

impl Eq for RefEvent {}

impl Ord for RefEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering so the BinaryHeap becomes a min-heap on (time, seq).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for RefEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One reference capture, comparable against [`desync_sim`'s `Capture`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefCapture {
    time_ps: f64,
    cell: CellId,
    value: Value,
}

struct RefSim<'a> {
    netlist: &'a Netlist,
    values: Vec<Value>,
    projected: Vec<Value>,
    readers: Vec<Vec<CellId>>,
    cell_delay: Vec<f64>,
    queue: BinaryHeap<RefEvent>,
    seq: u64,
    time: f64,
    watched: HashSet<NetId>,
    transitions: Vec<u64>,
    waveforms: WaveformSet,
    captures: Vec<RefCapture>,
}

impl<'a> RefSim<'a> {
    fn new(netlist: &'a Netlist, library: &'a CellLibrary, config: SimConfig) -> Self {
        let fanout = netlist.fanout_map();
        let cell_delay = netlist
            .cells()
            .map(|(_, c)| {
                let fo = fanout[c.output.index()].max(1);
                let base = match c.kind {
                    CellKind::Dff => config.clk_to_q_ps,
                    CellKind::LatchLow | CellKind::LatchHigh => config.latch_d_to_q_ps,
                    _ => library
                        .template(c.kind)
                        .instance_delay_ps(c.inputs.len().max(1), fo),
                };
                base + config.wire_delay_per_fanout_ps * fo as f64
            })
            .collect();
        let mut sim = Self {
            netlist,
            values: vec![Value::X; netlist.num_nets()],
            projected: vec![Value::X; netlist.num_nets()],
            readers: netlist.reader_map(),
            cell_delay,
            queue: BinaryHeap::new(),
            seq: 0,
            time: 0.0,
            watched: HashSet::new(),
            transitions: vec![0; netlist.num_nets()],
            waveforms: WaveformSet::new(),
            captures: Vec::new(),
        };
        for (_, cell) in netlist.cells() {
            match cell.kind {
                CellKind::Const0 => sim.schedule(cell.output, Value::Zero, 0.0),
                CellKind::Const1 => sim.schedule(cell.output, Value::One, 0.0),
                _ => {}
            }
        }
        sim
    }

    fn watch_named(&mut self, names: &[&str]) {
        for &name in names {
            if let Some(net) = self.netlist.find_net(name) {
                self.watched.insert(net);
            }
        }
    }

    fn schedule(&mut self, net: NetId, value: Value, at_ps: f64) {
        assert!(at_ps + 1e-9 >= self.time);
        self.seq += 1;
        self.projected[net.index()] = value;
        self.queue.push(RefEvent {
            time: at_ps.max(self.time),
            seq: self.seq,
            net,
            value,
        });
    }

    fn set(&mut self, net: NetId, value: Value) {
        self.schedule(net, value, self.time);
    }

    fn initialize_registers(&mut self, value: Value) {
        let nets: Vec<NetId> = self
            .netlist
            .cells()
            .filter(|(_, c)| c.kind == CellKind::Dff || c.kind.is_latch())
            .map(|(_, c)| c.output)
            .collect();
        for net in nets {
            self.schedule(net, value, self.time);
        }
    }

    fn run_until(&mut self, until_ps: f64) {
        while let Some(next) = self.queue.peek() {
            if next.time > until_ps {
                break;
            }
            let event = self.queue.pop().expect("peeked event exists");
            self.time = event.time;
            self.commit(event);
        }
        self.time = self.time.max(until_ps);
    }

    fn settle(&mut self, max_events: usize) {
        let mut committed = 0usize;
        while committed < max_events {
            let Some(event) = self.queue.pop() else { break };
            self.time = event.time;
            committed += self.commit(event);
        }
    }

    fn commit(&mut self, event: RefEvent) -> usize {
        let old = self.values[event.net.index()];
        if old == event.value {
            return 0;
        }
        self.values[event.net.index()] = event.value;
        if old != Value::X {
            self.transitions[event.net.index()] += 1;
        }
        if self.watched.contains(&event.net) {
            self.waveforms.push(
                self.netlist.net(event.net).name.as_str(),
                event.time,
                event.value,
            );
        }
        let readers = self.readers[event.net.index()].clone();
        for cell_id in readers {
            self.evaluate_cell(cell_id, event.net, old, event.value);
        }
        1
    }

    fn evaluate_cell(&mut self, cell_id: CellId, changed: NetId, old: Value, new: Value) {
        let cell = self.netlist.cell(cell_id);
        let delay = self.cell_delay[cell_id.index()];
        let input_values: Vec<Value> = cell
            .inputs
            .iter()
            .map(|&n| self.values[n.index()])
            .collect();
        match cell.kind {
            CellKind::Dff => {
                let clk = cell.inputs[1];
                if changed == clk && new == Value::One && old != Value::One {
                    let d = self.values[cell.inputs[0].index()];
                    self.captures.push(RefCapture {
                        time_ps: self.time,
                        cell: cell_id,
                        value: d,
                    });
                    self.schedule(cell.output, d, self.time + delay);
                }
            }
            CellKind::LatchLow | CellKind::LatchHigh => {
                let transparent_high = cell.kind == CellKind::LatchHigh;
                let d = input_values[0];
                let en = input_values[1];
                let stored = self.projected[cell.output.index()];
                let q = evaluate_latch(d, en, stored, transparent_high);
                if q != self.projected[cell.output.index()] {
                    self.schedule(cell.output, q, self.time + delay);
                }
                let enable_net = cell.inputs[1];
                let closing = if transparent_high {
                    Value::Zero
                } else {
                    Value::One
                };
                if changed == enable_net && new == closing && old != closing && old != Value::X {
                    self.captures.push(RefCapture {
                        time_ps: self.time,
                        cell: cell_id,
                        value: d,
                    });
                }
            }
            CellKind::CElement => {
                let stored = self.projected[cell.output.index()];
                let q = evaluate_c_element(&input_values, stored);
                if q != self.projected[cell.output.index()] {
                    self.schedule(cell.output, q, self.time + delay);
                }
            }
            kind => {
                let q = evaluate(kind, &input_values);
                if q != self.projected[cell.output.index()] {
                    self.schedule(cell.output, q, self.time + delay);
                }
            }
        }
    }
}

// ---- shared testbench scripts, applied identically to both kernels ------

/// The synchronous testbench script of `SyncBench::run`, replayed
/// against the reference kernel.
fn ref_sync_run(
    netlist: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    cycles: usize,
    period_ps: f64,
    source: &VectorSource,
    watch: &[&str],
) -> RefSim<'static> {
    // SAFETY-free lifetime dodge: the reference simulator borrows the
    // netlist; returning it together would fight the borrow checker, so the
    // caller passes owned leaks instead. Tests only — keep it simple by
    // leaking (the test process is short-lived).
    let netlist: &'static Netlist = Box::leak(Box::new(netlist.clone()));
    let library: &'static CellLibrary = Box::leak(Box::new(library.clone()));
    let mut sim = RefSim::new(netlist, library, config);
    sim.watch_named(watch);
    let clock = netlist.single_clock().expect("single clock");
    sim.initialize_registers(Value::Zero);
    for &input in netlist.inputs() {
        if input != clock {
            sim.set(input, Value::Zero);
        }
    }
    sim.set(clock, Value::Zero);
    sim.settle(1_000_000);
    let start = sim.time;
    let input_offset = period_ps * 0.05;
    for cycle in 0..cycles {
        let base = start + (cycle as f64 + 1.0) * period_ps;
        sim.schedule(clock, Value::One, base);
        sim.schedule(clock, Value::Zero, base + period_ps * 0.5);
        for (net, value) in source.vector_for(cycle) {
            sim.schedule(net, value, base + input_offset);
        }
        sim.run_until(base + period_ps - 1.0);
    }
    sim.run_until(start + (cycles as f64 + 1.0) * period_ps);
    sim
}

/// The synchronous testbench script against the production kernel, exposing
/// the raw simulator for capture/waveform comparison.
fn new_sync_run<'a>(
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    config: SimConfig,
    cycles: usize,
    period_ps: f64,
    source: &VectorSource,
    watch: &[&str],
) -> Simulator<'a, Value> {
    let mut sim = Simulator::<Value>::new(netlist, library, config);
    sim.watch_named(watch);
    let clock = netlist.single_clock().expect("single clock");
    sim.initialize_registers(Value::Zero);
    for &input in netlist.inputs() {
        if input != clock {
            sim.set(input, Value::Zero);
        }
    }
    sim.set(clock, Value::Zero);
    sim.settle(1_000_000);
    let start = sim.time();
    let input_offset = period_ps * 0.05;
    for cycle in 0..cycles {
        let base = start + (cycle as f64 + 1.0) * period_ps;
        sim.schedule(clock, Value::One, base);
        sim.schedule(clock, Value::Zero, base + period_ps * 0.5);
        for (net, value) in source.vector_for(cycle) {
            sim.schedule(net, value, base + input_offset);
        }
        sim.run_until(base + period_ps - 1.0);
    }
    sim.run_until(start + (cycles as f64 + 1.0) * period_ps);
    sim
}

/// The asynchronous testbench script of `AsyncBench::run`, replayed
/// against the reference kernel.
fn ref_async_run(
    netlist: &Netlist,
    library: &CellLibrary,
    config: SimConfig,
    duration_ps: f64,
    schedule: &EnableSchedule,
    inputs: &[(f64, NetId, Value)],
    watch: &[&str],
) -> RefSim<'static> {
    let netlist: &'static Netlist = Box::leak(Box::new(netlist.clone()));
    let library: &'static CellLibrary = Box::leak(Box::new(library.clone()));
    let mut sim = RefSim::new(netlist, library, config);
    sim.watch_named(watch);
    sim.initialize_registers(Value::Zero);
    for &input in netlist.inputs() {
        sim.set(input, Value::Zero);
    }
    sim.settle(1_000_000);
    for (t, net, value) in schedule.sorted_events() {
        let at = t.max(sim.time);
        sim.schedule(net, value, at);
    }
    let mut sorted_inputs: Vec<&(f64, NetId, Value)> = inputs.iter().collect();
    sorted_inputs.sort_by(|a, b| a.0.total_cmp(&b.0));
    for &(t, net, value) in sorted_inputs {
        let at = t.max(sim.time);
        sim.schedule(net, value, at);
    }
    sim.run_until(duration_ps);
    sim
}

/// The asynchronous testbench script against the production kernel.
fn new_async_run<'a>(
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    config: SimConfig,
    duration_ps: f64,
    schedule: &EnableSchedule,
    inputs: &[(f64, NetId, Value)],
    watch: &[&str],
) -> Simulator<'a, Value> {
    let mut sim = Simulator::<Value>::new(netlist, library, config);
    sim.watch_named(watch);
    sim.initialize_registers(Value::Zero);
    for &input in netlist.inputs() {
        sim.set(input, Value::Zero);
    }
    sim.settle(1_000_000);
    for (t, net, value) in schedule.sorted_events() {
        let at = t.max(sim.time());
        sim.schedule(net, value, at);
    }
    let mut sorted_inputs: Vec<&(f64, NetId, Value)> = inputs.iter().collect();
    sorted_inputs.sort_by(|a, b| a.0.total_cmp(&b.0));
    for &(t, net, value) in sorted_inputs {
        let at = t.max(sim.time());
        sim.schedule(net, value, at);
    }
    sim.run_until(duration_ps);
    sim
}

/// Asserts that the production kernel and the reference kernel produced
/// byte-identical observables: capture stream (cells, values **and** exact
/// f64 times), per-net activity counters and watched waveforms.
fn assert_golden(sim: &Simulator<'_, Value>, reference: &RefSim<'_>) {
    assert_eq!(
        sim.captures.len(),
        reference.captures.len(),
        "capture counts differ"
    );
    for (got, want) in sim.captures.iter().zip(reference.captures.iter()) {
        assert_eq!(got.cell, want.cell, "capture cell differs");
        assert_eq!(got.value, want.value, "capture value differs");
        assert_eq!(
            got.time_ps.to_bits(),
            want.time_ps.to_bits(),
            "capture time differs"
        );
    }
    let run = sim.clone().into_run(0);
    assert_eq!(
        run.activity.transitions, reference.transitions,
        "per-net activity counters differ"
    );
    assert_eq!(
        run.waveforms, reference.waveforms,
        "watched waveforms differ"
    );
    assert_eq!(sim.time().to_bits(), reference.time.to_bits());
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Synchronous testbench: the rewritten kernel's captures, activity and
    /// waveforms are byte-identical to the reference implementation over
    /// random circuits.
    #[test]
    fn sync_golden_trace(
        seed in 0u64..400,
        flip_flops in 2usize..10,
        gates in 5usize..50,
        cycles in 4usize..16,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let config = SimConfig::default();
        let stim = VectorSource::pseudo_random(data_inputs(&netlist), seed ^ 0x5a5a);
        let watch = ["in0", "ff0_q", "g0_y"];
        let period = 4_000.0;
        let sim = new_sync_run(&netlist, &library, config, cycles, period, &stim, &watch);
        let reference = ref_sync_run(&netlist, &library, config, cycles, period, &stim, &watch);
        assert_golden(&sim, &reference);
    }

    /// Desynchronized testbench: for every protocol, the latch datapath
    /// driven by the control model's enable schedule produces byte-identical
    /// traces in both kernels.
    #[test]
    fn async_golden_trace_all_protocols(
        seed in 0u64..200,
        flip_flops in 2usize..8,
        gates in 5usize..30,
        protocol_idx in 0usize..3,
    ) {
        let netlist = random_netlist(seed, flip_flops, gates);
        let library = CellLibrary::generic_90nm();
        let protocol = Protocol::all()[protocol_idx];
        let design = DesyncFlow::new(
            &netlist,
            &library,
            DesyncOptions::default().with_protocol(protocol),
        ).expect("valid options")
        .design()
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
        // Retimed input vectors, as the verification harness applies them.
        let stim = VectorSource::pseudo_random(data_inputs(&netlist), seed ^ 0x77);
        let mut inputs = Vec::new();
        for (k, &t) in bundle.input_vector_times.iter().enumerate() {
            if k >= cycles {
                break;
            }
            for (net, value) in stim.vector_for(k) {
                let name = netlist.net(net).name;
                if let Some(mapped) = latch_netlist.find_net_symbol(name) {
                    inputs.push((t, mapped, value));
                }
            }
        }
        let duration = bundle.horizon_ps + design.cycle_time_ps() + 1_000.0;
        // Watch one enable net pair plus an output.
        let watch_owned: Vec<String> = latch_netlist
            .inputs()
            .iter()
            .take(2)
            .map(|&n| latch_netlist.net(n).name.to_string())
            .collect();
        let watch: Vec<&str> = watch_owned.iter().map(String::as_str).collect();
        let sim = new_async_run(
            latch_netlist, &library, config, duration, &bundle.schedule, &inputs, &watch,
        );
        let reference = ref_async_run(
            latch_netlist, &library, config, duration, &bundle.schedule, &inputs, &watch,
        );
        assert_golden(&sim, &reference);
    }
}
