//! Property-based tests of the event-driven simulator: determinism,
//! equivalence of gate-level simulation with direct boolean evaluation on
//! combinational netlists, and correct shift-register behaviour of the
//! synchronous testbench.

use desync_netlist::value::evaluate;
use desync_netlist::{CellKind, CellLibrary, NetId, Netlist, Value};
use desync_sim::{SimConfig, Simulator, SyncBench, VectorSource};
use proptest::prelude::*;

/// A random purely combinational netlist plus a reference evaluation
/// function.
fn random_combinational(seed: u64, gates: usize) -> (Netlist, Vec<NetId>) {
    let mut n = Netlist::new(format!("sim_prop_{seed}"));
    let inputs: Vec<NetId> = (0..4).map(|i| n.add_input(format!("i{i}"))).collect();
    let mut nets = inputs.clone();
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Nor,
        CellKind::Not,
        CellKind::Mux2,
    ];
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for g in 0..gates {
        let kind = kinds[(next() as usize) % kinds.len()];
        let arity = kind.fixed_arity().unwrap_or(2 + (next() as usize) % 2);
        let ins: Vec<_> = (0..arity)
            .map(|_| nets[(next() as usize) % nets.len()])
            .collect();
        let out = n.add_net(format!("w{g}"));
        n.add_gate(format!("g{g}"), kind, &ins, out).unwrap();
        nets.push(out);
    }
    let out = *nets.last().unwrap();
    n.mark_output(out);
    (n, inputs)
}

/// Reference: evaluate the combinational netlist directly in topological
/// order.
fn reference_evaluate(netlist: &Netlist, assignment: &[(NetId, Value)]) -> Vec<Value> {
    let mut values = vec![Value::X; netlist.num_nets()];
    for &(net, value) in assignment {
        values[net.index()] = value;
    }
    let order = desync_netlist::analysis::topological_order(netlist).expect("acyclic");
    for cell_id in order {
        let cell = netlist.cell(cell_id);
        let inputs: Vec<Value> = cell.inputs.iter().map(|&i| values[i.index()]).collect();
        values[cell.output.index()] = evaluate(cell.kind, &inputs);
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// After settling, the event-driven simulator agrees with direct boolean
    /// evaluation on every net of a combinational netlist, for any input
    /// assignment and any order of input application.
    #[test]
    fn settled_simulation_matches_direct_evaluation(
        seed in 0u64..3000,
        gates in 1usize..30,
        bits in proptest::collection::vec(proptest::bool::ANY, 4),
    ) {
        let (netlist, inputs) = random_combinational(seed, gates);
        let library = CellLibrary::generic_90nm();
        let assignment: Vec<(NetId, Value)> = inputs
            .iter()
            .zip(bits.iter())
            .map(|(&n, &b)| (n, Value::from_bool(b)))
            .collect();

        let mut sim = Simulator::<Value>::new(&netlist, &library, SimConfig::default());
        for &(net, value) in &assignment {
            sim.set(net, value);
        }
        sim.settle(1_000_000);

        let reference = reference_evaluate(&netlist, &assignment);
        for (id, _) in netlist.nets() {
            prop_assert_eq!(
                sim.value(id),
                reference[id.index()],
                "net {} differs", netlist.net(id).name
            );
        }
    }

    /// The simulator is deterministic: two runs with the same stimulus
    /// produce identical traces and activity counts.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..2000, gates in 1usize..25, cycles in 2usize..12) {
        let mut netlist = Netlist::new(format!("det_{seed}"));
        let clk = netlist.add_input("clk");
        let din = netlist.add_input("din");
        // A little random logic in front of a 3-stage shift register.
        let mut prev = din;
        for g in 0..gates {
            let out = netlist.add_net(format!("w{g}"));
            let kind = if g % 2 == 0 { CellKind::Not } else { CellKind::Buf };
            netlist.add_gate(format!("g{g}"), kind, &[prev], out).unwrap();
            prev = out;
        }
        let q0 = netlist.add_net("q0");
        let q1 = netlist.add_net("q1");
        let q2 = netlist.add_output("q2");
        netlist.add_dff("s0", prev, clk, q0).unwrap();
        netlist.add_dff("s1", q0, clk, q1).unwrap();
        netlist.add_dff("s2", q1, clk, q2).unwrap();

        let library = CellLibrary::generic_90nm();
        let stim = VectorSource::pseudo_random(vec![din], seed);
        let run = |cycles: usize| {
            let tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default()).unwrap();
            tb.run(cycles, 4_000.0, &stim)
        };
        let a = run(cycles);
        let b = run(cycles);
        prop_assert_eq!(&a.flow_trace, &b.flow_trace);
        prop_assert_eq!(a.activity.total_transitions(), b.activity.total_transitions());
        prop_assert_eq!(a.duration_ps, b.duration_ps);
    }

    /// A chain of flip-flops behaves as a shift register under the
    /// synchronous testbench: stage k's stream is stage k-1's delayed by one.
    #[test]
    fn flip_flop_chain_shifts(seed in 0u64..2000, stages in 2usize..6, cycles in 4usize..16) {
        let mut netlist = Netlist::new("shift");
        let clk = netlist.add_input("clk");
        let din = netlist.add_input("din");
        let mut prev = din;
        for s in 0..stages {
            let q = netlist.add_net(format!("q{s}"));
            netlist.add_dff(format!("r{s}"), prev, clk, q).unwrap();
            prev = q;
        }
        netlist.mark_output(prev);
        let library = CellLibrary::generic_90nm();
        let stim = VectorSource::pseudo_random(vec![din], seed);
        let tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default()).unwrap();
        let run = tb.run(cycles, 3_000.0, &stim);
        for s in 1..stages {
            let upstream = run.flow_trace.stream(&format!("r{}", s - 1)).unwrap();
            let downstream = run.flow_trace.stream(&format!("r{s}")).unwrap();
            prop_assert_eq!(&downstream[1..], &upstream[..upstream.len() - 1]);
        }
    }

    /// Activity counters never exceed the number of committed events and
    /// grow monotonically with simulated cycles.
    #[test]
    fn activity_grows_with_cycles(seed in 0u64..1000, cycles in 2usize..10) {
        let mut netlist = Netlist::new("act");
        let clk = netlist.add_input("clk");
        let q = netlist.add_net("q");
        let d = netlist.add_net("d");
        netlist.add_gate("inv", CellKind::Not, &[q], d).unwrap();
        netlist.add_dff("r", d, clk, q).unwrap();
        netlist.mark_output(q);
        let library = CellLibrary::generic_90nm();
        let stim = VectorSource::constant(vec![]);
        let short = {
            let tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default()).unwrap();
            tb.run(cycles, 4_000.0, &stim)
        };
        let long = {
            let tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default()).unwrap();
            tb.run(cycles * 2, 4_000.0, &stim)
        };
        prop_assert!(long.activity.total_transitions() >= short.activity.total_transitions());
        prop_assert!(long.duration_ps > short.duration_ps);
        let _ = seed;
    }
}
