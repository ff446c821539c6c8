//! Differential oracle for the construction layers that index by dense
//! ids: the topological order, the combinational-cycle search, the
//! sequential graph, the netlist lint suite, clustering and the latch
//! conversion must produce exactly what their hash-map implementations
//! produced, order included.
//!
//! The `oracle` module keeps verbatim copies of those implementations
//! (free functions here, over the public API). They run on seeded random
//! circuits under both clusterings, on generated netlists with
//! combinational cycles, multi-driven, undriven and dead nets and latches,
//! on every parseable file of `crates/netlist/tests/data`, and on the
//! 50k-cell mesh fabric of the repository benchmark, read back from EDIF.
//!
//! The latch conversion is compared on the netlists it is defined for,
//! those whose `lint_design` report is clean; the flow's lint gate rejects
//! every other netlist before its Latched stage, which is checked instead.
//! The oracle's copy of the conversion therefore starts at its clock
//! lookup: the input check it began with always passed on clean netlists.

use desync_circuits::random::RandomCircuitConfig;
use desync_core::conversion::to_desynchronized_datapath;
use desync_core::{ClusterGraph, ClusteringStrategy, DesyncError, DesyncFlow, DesyncOptions};
use desync_lint::lint_design;
use desync_lint::netlist_passes::lint_netlist;
use desync_netlist::analysis::{
    combinational_depth, find_combinational_cycle, topological_order, SequentialGraph,
};
use desync_netlist::edif::{from_edif, to_edif};
use desync_netlist::{CellKind, CellLibrary, NetId, Netlist};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The hash-map implementations the dense-id layers replaced, kept as the
/// reference they are compared against.
mod oracle {
    use desync_core::{Cluster, ClusterEdge, ClusterGraph, ClusteringStrategy, DesyncError};
    use desync_lint::{Diagnostic, LintCode, LintReport};
    use desync_netlist::analysis::{SeqEdge, SequentialGraph};
    use desync_netlist::{CellId, CellKind, NetId, Netlist, PinRole};
    use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

    pub fn topological_order(netlist: &Netlist) -> Option<Vec<CellId>> {
        let driver = netlist.driver_map();
        // In-degree counted over *combinational* predecessors only.
        let mut indegree: HashMap<CellId, usize> = HashMap::new();
        let mut successors: HashMap<CellId, Vec<CellId>> = HashMap::new();
        let mut comb_cells = Vec::new();

        for (id, cell) in netlist.cells() {
            if !cell.kind.is_combinational() {
                continue;
            }
            comb_cells.push(id);
            let mut deg = 0usize;
            for &input in &cell.inputs {
                if let Some(pred) = driver[input.index()] {
                    if netlist.cell(pred).kind.is_combinational() {
                        deg += 1;
                        successors.entry(pred).or_default().push(id);
                    }
                }
            }
            indegree.insert(id, deg);
        }

        let mut queue: VecDeque<CellId> = comb_cells
            .iter()
            .copied()
            .filter(|id| indegree[id] == 0)
            .collect();
        let mut order = Vec::with_capacity(comb_cells.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            if let Some(succ) = successors.get(&id) {
                for &s in succ {
                    let d = indegree.get_mut(&s).expect("successor must be registered");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(s);
                    }
                }
            }
        }
        if order.len() == comb_cells.len() {
            Some(order)
        } else {
            None
        }
    }

    pub fn find_combinational_cycle(netlist: &Netlist) -> Option<Vec<CellId>> {
        let driver = netlist.driver_map();
        let mut color: HashMap<CellId, u8> = HashMap::new();
        let mut ids: Vec<CellId> = Vec::new();
        for (id, cell) in netlist.cells() {
            if cell.kind.is_combinational() {
                color.insert(id, 0);
                ids.push(id);
            }
        }
        let comb_preds = |id: CellId| -> Vec<CellId> {
            netlist
                .cell(id)
                .inputs
                .iter()
                .filter_map(|&n| driver[n.index()])
                .filter(|&p| netlist.cell(p).kind.is_combinational())
                .collect()
        };

        for start in ids {
            if color[&start] != 0 {
                continue;
            }
            // stack of (cell, next predecessor index)
            let mut stack: Vec<(CellId, usize)> = vec![(start, 0)];
            let mut path: Vec<CellId> = vec![start];
            color.insert(start, 1);
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let preds = comb_preds(node);
                if *next < preds.len() {
                    let p = preds[*next];
                    *next += 1;
                    match color[&p] {
                        0 => {
                            color.insert(p, 1);
                            stack.push((p, 0));
                            path.push(p);
                        }
                        1 => {
                            // Found a cycle: slice the current path from p onwards.
                            let pos = path.iter().position(|&c| c == p).unwrap_or(0);
                            let mut cycle = path[pos..].to_vec();
                            canonicalize_cycle(&mut cycle);
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }

    fn canonicalize_cycle(cycle: &mut [CellId]) {
        if let Some(min) = cycle
            .iter()
            .enumerate()
            .min_by_key(|&(_, id)| *id)
            .map(|(pos, _)| pos)
        {
            cycle.rotate_left(min);
        }
    }

    pub fn combinational_depth(netlist: &Netlist) -> usize {
        let Some(order) = topological_order(netlist) else {
            return 0;
        };
        let driver = netlist.driver_map();
        let mut level: HashMap<CellId, usize> = HashMap::new();
        let mut max = 0usize;
        for id in order {
            let cell = netlist.cell(id);
            let mut lvl = 1usize;
            for &input in &cell.inputs {
                if let Some(pred) = driver[input.index()] {
                    if netlist.cell(pred).kind.is_combinational() {
                        lvl = lvl.max(level.get(&pred).copied().unwrap_or(0) + 1);
                    }
                }
            }
            max = max.max(lvl);
            level.insert(id, lvl);
        }
        max
    }

    fn sequential_fanin(
        netlist: &Netlist,
        net: NetId,
        driver: &[Option<CellId>],
        input_set: &HashSet<NetId>,
    ) -> (Vec<CellId>, bool) {
        let mut seen_nets: HashSet<NetId> = HashSet::new();
        let mut result = Vec::new();
        let mut reaches_input = false;
        let mut queue = VecDeque::new();
        queue.push_back(net);
        while let Some(n) = queue.pop_front() {
            if !seen_nets.insert(n) {
                continue;
            }
            match driver[n.index()] {
                Some(d) => {
                    let cell = netlist.cell(d);
                    if cell.kind.is_sequential() {
                        if !result.contains(&d) {
                            result.push(d);
                        }
                    } else {
                        for &input in &cell.inputs {
                            queue.push_back(input);
                        }
                    }
                }
                None => {
                    if input_set.contains(&n) {
                        reaches_input = true;
                    }
                }
            }
        }
        (result, reaches_input)
    }

    pub fn sequential_graph(netlist: &Netlist) -> SequentialGraph {
        let driver = netlist.driver_map();
        let input_set: HashSet<NetId> = netlist.inputs().iter().copied().collect();
        let mut registers = Vec::new();
        let mut edges = Vec::new();
        let mut edge_set: HashSet<SeqEdge> = HashSet::new();
        let mut fed_by_inputs = Vec::new();
        for (id, cell) in netlist.cells() {
            if !(cell.kind == CellKind::Dff || cell.kind.is_latch()) {
                continue;
            }
            registers.push(id);
            if let Some(data) = cell.data_net() {
                let (preds, from_input) = sequential_fanin(netlist, data, &driver, &input_set);
                for p in preds {
                    let e = SeqEdge { from: p, to: id };
                    if edge_set.insert(e) {
                        edges.push(e);
                    }
                }
                if from_input {
                    fed_by_inputs.push(id);
                }
            }
        }
        let mut feeding_outputs = Vec::new();
        let mut feeding_set: HashSet<CellId> = HashSet::new();
        for &out in netlist.outputs() {
            let (preds, _) = sequential_fanin(netlist, out, &driver, &input_set);
            for p in preds {
                if feeding_set.insert(p) {
                    feeding_outputs.push(p);
                }
            }
        }
        SequentialGraph {
            registers,
            edges,
            fed_by_inputs,
            feeding_outputs,
        }
    }

    pub fn lint_netlist(netlist: &Netlist) -> LintReport {
        let mut report = LintReport::new();
        let num_nets = netlist.num_nets();

        // Shared maps, built once: drivers per net, reader role per net.
        let mut drivers: Vec<Vec<CellId>> = vec![Vec::new(); num_nets];
        for (id, cell) in netlist.cells() {
            drivers[cell.output.index()].push(id);
        }
        let mut is_input = vec![false; num_nets];
        for &n in netlist.inputs() {
            is_input[n.index()] = true;
        }
        let mut is_output = vec![false; num_nets];
        for &n in netlist.outputs() {
            is_output[n.index()] = true;
        }
        let mut data_readers: Vec<Vec<CellId>> = vec![Vec::new(); num_nets];
        let mut any_reader = vec![false; num_nets];
        for (id, cell) in netlist.cells() {
            for (pin, &net) in cell.inputs.iter().enumerate() {
                any_reader[net.index()] = true;
                if cell.pin_role(pin) == PinRole::Data {
                    data_readers[net.index()].push(id);
                }
            }
        }

        // NL001: multi-driven nets. A primary input counts as a driver.
        for (id, net) in netlist.nets() {
            let cells = &drivers[id.index()];
            let total = cells.len() + usize::from(is_input[id.index()]);
            if total > 1 {
                let also_input = if is_input[id.index()] {
                    " (including the primary input)"
                } else {
                    ""
                };
                report.push(
                    Diagnostic::new(
                        LintCode::MultiDrivenNet,
                        net.name,
                        format!("driven {total} times{also_input}"),
                    )
                    .with_witness(cells.iter().map(|&c| netlist.cell(c).name).collect()),
                );
            }
        }

        // NL002: floating reads.
        for (id, net) in netlist.nets() {
            let i = id.index();
            if drivers[i].is_empty()
                && !is_input[i]
                && (!data_readers[i].is_empty() || is_output[i])
            {
                let what = match (data_readers[i].len(), is_output[i]) {
                    (0, _) => "exposed as a primary output but never driven".to_string(),
                    (n, false) => format!("read by {n} cell input(s) but never driven"),
                    (n, true) => {
                        format!("read by {n} cell input(s) and a primary output but never driven")
                    }
                };
                report.push(
                    Diagnostic::new(LintCode::FloatingInput, net.name, what).with_witness(
                        data_readers[i]
                            .iter()
                            .map(|&c| netlist.cell(c).name)
                            .collect(),
                    ),
                );
            }
        }

        // NL003 (warning): dead nets.
        for (id, net) in netlist.nets() {
            let i = id.index();
            if !any_reader[i] && !is_output[i] {
                let d = Diagnostic::new(
                    LintCode::DeadNet,
                    net.name,
                    "never read by any cell or primary output".to_string(),
                );
                report.push(
                    d.with_witness(drivers[i].iter().map(|&c| netlist.cell(c).name).collect()),
                );
            }
        }

        // NL004 (warning): unreachable cells.
        let mut net_seen = vec![false; num_nets];
        let mut cell_seen = vec![false; netlist.num_cells()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &out in netlist.outputs() {
            if !net_seen[out.index()] {
                net_seen[out.index()] = true;
                queue.push_back(out.index());
            }
        }
        while let Some(net) = queue.pop_front() {
            for &d in &drivers[net] {
                if !cell_seen[d.index()] {
                    cell_seen[d.index()] = true;
                    for &input in &netlist.cell(d).inputs {
                        if !net_seen[input.index()] {
                            net_seen[input.index()] = true;
                            queue.push_back(input.index());
                        }
                    }
                }
            }
        }
        for (id, cell) in netlist.cells() {
            if !cell_seen[id.index()] {
                report.push(Diagnostic::new(
                    LintCode::UnreachableCell,
                    cell.name,
                    "no path from its output to any primary output".to_string(),
                ));
            }
        }

        // NL005: combinational cycle, with the canonical cycle as witness.
        if let Some(cycle) = find_combinational_cycle(netlist) {
            let names: Vec<_> = cycle.iter().map(|&c| netlist.cell(c).name).collect();
            report.push(
                Diagnostic::new(
                    LintCode::CombinationalCycle,
                    names[0],
                    format!("combinational cycle through {} cells", cycle.len()),
                )
                .with_witness(names),
            );
        }

        // NL006: registers whose clock/enable net is undriven.
        for (_, cell) in netlist.sequential_cells() {
            let Some(ctl) = cell.clock_net().or_else(|| cell.enable_net()) else {
                continue;
            };
            let i = ctl.index();
            if drivers[i].is_empty() && !is_input[i] {
                report.push(
                    Diagnostic::new(
                        LintCode::UnclockedRegister,
                        cell.name,
                        format!(
                            "clock/enable net `{}` has no driver and is not a primary input",
                            netlist.net(ctl).name.as_str()
                        ),
                    )
                    .with_witness(vec![netlist.net(ctl).name]),
                );
            }
        }

        // NL007: multiple clock nets.
        let clocks = netlist.clock_nets();
        if clocks.len() > 1 {
            report.push(
                Diagnostic::new(
                    LintCode::MultipleClocks,
                    netlist.name_symbol(),
                    format!("flip-flops are clocked by {} distinct nets", clocks.len()),
                )
                .with_witness(clocks.iter().map(|&n| netlist.net(n).name).collect()),
            );
        }

        // NL008: primary-port sanity.
        let mut seen = vec![false; num_nets];
        for &n in netlist.inputs() {
            if seen[n.index()] {
                report.push(Diagnostic::new(
                    LintCode::PortSanity,
                    netlist.net(n).name,
                    "listed more than once as a primary input".to_string(),
                ));
            }
            seen[n.index()] = true;
        }
        seen.iter_mut().for_each(|s| *s = false);
        for &n in netlist.outputs() {
            if seen[n.index()] {
                report.push(Diagnostic::new(
                    LintCode::PortSanity,
                    netlist.net(n).name,
                    "listed more than once as a primary output".to_string(),
                ));
            }
            seen[n.index()] = true;
            if is_input[n.index()] {
                report.push(Diagnostic::new(
                    LintCode::PortSanity,
                    netlist.net(n).name,
                    "declared both a primary input and a primary output".to_string(),
                ));
            }
        }

        report
    }

    fn cluster_name_of(instance: &str) -> String {
        match instance.rfind('[') {
            Some(pos) if instance.ends_with(']') => instance[..pos].to_string(),
            _ => instance.to_string(),
        }
    }

    pub fn cluster_graph(netlist: &Netlist, strategy: ClusteringStrategy) -> ClusterGraph {
        let seq = sequential_graph(netlist);
        // Assign each register to a cluster key.
        let mut key_of: HashMap<CellId, String> = HashMap::new();
        for &reg in &seq.registers {
            let name = &netlist.cell(reg).name;
            let key = match strategy {
                ClusteringStrategy::PerRegister => name.to_string(),
                ClusteringStrategy::ByNamePrefix => cluster_name_of(name.as_str()),
            };
            key_of.insert(reg, key);
        }
        // Deterministic cluster ordering by key.
        let mut grouped: BTreeMap<String, Vec<CellId>> = BTreeMap::new();
        for &reg in &seq.registers {
            grouped.entry(key_of[&reg].clone()).or_default().push(reg);
        }
        let clusters: Vec<Cluster> = grouped
            .into_iter()
            .map(|(name, registers)| Cluster { name, registers })
            .collect();
        let index_of: HashMap<CellId, usize> = clusters
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.registers.iter().map(move |&r| (r, i)))
            .collect();

        // First-seen order, deduplicated through a set beside the list.
        let mut edges = Vec::new();
        let mut seen = HashSet::new();
        for e in &seq.edges {
            let edge = ClusterEdge {
                from: index_of[&e.from],
                to: index_of[&e.to],
            };
            if seen.insert(edge) {
                edges.push(edge);
            }
        }
        let mut input_fed = vec![false; clusters.len()];
        for reg in &seq.fed_by_inputs {
            input_fed[index_of[reg]] = true;
        }
        let mut output_feeding = vec![false; clusters.len()];
        for reg in &seq.feeding_outputs {
            output_feeding[index_of[reg]] = true;
        }
        ClusterGraph {
            clusters,
            edges,
            input_fed,
            output_feeding,
        }
    }

    /// `LatchPair` as it was, with its names as strings.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LatchPair {
        pub register: CellId,
        pub register_name: String,
        pub master: String,
        pub slave: String,
        pub cluster: usize,
    }

    /// `LatchDesign` with the pairs above.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LatchDesign {
        pub netlist: Netlist,
        pub pairs: Vec<LatchPair>,
        pub cluster_enables: Vec<(String, String, String)>,
    }

    fn copy_combinational_skeleton(
        source: &Netlist,
        name: &str,
        skip_input: Option<NetId>,
    ) -> Netlist {
        let mut out = Netlist::new(name.to_string());
        for (_, net) in source.nets() {
            out.add_net(net.name);
        }
        for &input in source.inputs() {
            if Some(input) != skip_input {
                out.mark_input(input);
            }
        }
        for &output in source.outputs() {
            out.mark_output(output);
        }
        for (_, cell) in source.cells() {
            if cell.kind.is_combinational() {
                out.add_cell(cell.clone())
                    .expect("copying a valid cell cannot fail");
            }
        }
        out
    }

    pub fn to_desynchronized_datapath(
        source: &Netlist,
        clusters: &ClusterGraph,
    ) -> Result<LatchDesign, DesyncError> {
        let clk = source.single_clock().map_err(DesyncError::Netlist)?;
        let mut netlist =
            copy_combinational_skeleton(source, &format!("{}_desync", source.name()), Some(clk));

        // One enable-net pair per cluster, exported as primary inputs.
        let mut cluster_enables = Vec::with_capacity(clusters.len());
        let mut enables: Vec<(NetId, NetId)> = Vec::with_capacity(clusters.len());
        for cluster in &clusters.clusters {
            let m = netlist.add_input(format!("en_{}_m", cluster.name));
            let s = netlist.add_input(format!("en_{}_s", cluster.name));
            cluster_enables.push((
                cluster.name.clone(),
                netlist.net(m).name.to_string(),
                netlist.net(s).name.to_string(),
            ));
            enables.push((m, s));
        }
        let cluster_of: HashMap<CellId, usize> = clusters
            .clusters
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.registers.iter().map(move |&r| (r, i)))
            .collect();

        let mut pairs = Vec::new();
        for (id, cell) in source.flip_flops() {
            let Some(&cluster) = cluster_of.get(&id) else {
                return Err(DesyncError::ModelCheck(format!(
                    "flip-flop `{}` is not covered by any cluster",
                    cell.name
                )));
            };
            let (en_m, en_s) = enables[cluster];
            let d = cell.inputs[0];
            let q = cell.output;
            let mid = netlist.add_net(format!("{}__mq", cell.name));
            let master = format!("{}__m", cell.name);
            let slave = format!("{}__s", cell.name);
            netlist.add_latch(&master, d, en_m, mid, true)?;
            netlist.add_latch(&slave, mid, en_s, q, true)?;
            pairs.push(LatchPair {
                register: id,
                register_name: cell.name.to_string(),
                master,
                slave,
                cluster,
            });
        }
        Ok(LatchDesign {
            netlist,
            pairs,
            cluster_enables,
        })
    }
}

/// Runs `f`, turning a panic into `None` so both sides of a comparison may
/// panic alike (clustering panics on a sequential source that is not a
/// register, such as a C-element).
fn outcome<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Every compared layer on `netlist`, the new implementation against the
/// oracle. `what` names the case in failure messages. Returns whether the
/// netlist is lint-clean, so that the latch conversion was compared too.
fn check(netlist: &Netlist, what: &str) -> bool {
    assert_eq!(
        topological_order(netlist),
        oracle::topological_order(netlist),
        "{what}: topological order"
    );
    assert_eq!(
        find_combinational_cycle(netlist),
        oracle::find_combinational_cycle(netlist),
        "{what}: cycle witness"
    );
    assert_eq!(
        combinational_depth(netlist),
        oracle::combinational_depth(netlist),
        "{what}: depth"
    );
    assert_eq!(
        SequentialGraph::build(netlist),
        oracle::sequential_graph(netlist),
        "{what}: sequential graph"
    );
    let (lint, expected) = (lint_netlist(netlist), oracle::lint_netlist(netlist));
    assert_eq!(lint.to_json(), expected.to_json(), "{what}: lint JSON");
    assert_eq!(lint, expected, "{what}: lint report");

    // Outside the conversion's domain, the flow's gate refuses the netlist
    // with the report itself.
    let report = lint_design(netlist);
    let clean = report.is_clean();
    if !clean {
        let library = CellLibrary::generic_90nm();
        let mut flow = DesyncFlow::new(netlist, &library, DesyncOptions::default()).unwrap();
        assert_eq!(
            flow.latched().err(),
            Some(DesyncError::LintRejected(Arc::new(report))),
            "{what}: gate"
        );
    }

    for strategy in [
        ClusteringStrategy::PerRegister,
        ClusteringStrategy::ByNamePrefix,
    ] {
        let clusters = outcome(|| ClusterGraph::build(netlist, strategy));
        let expected = outcome(|| oracle::cluster_graph(netlist, strategy));
        assert_eq!(clusters, expected, "{what}: {strategy:?} clusters");
        let Some(clusters) = clusters else { continue };
        if !clean {
            continue;
        }
        let latched = to_desynchronized_datapath(netlist, &clusters);
        let expected = oracle::to_desynchronized_datapath(netlist, &clusters);
        match (latched, expected) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    got.netlist, want.netlist,
                    "{what}: {strategy:?} latch netlist"
                );
                assert_eq!(
                    got.netlist.structural_hash(),
                    want.netlist.structural_hash(),
                    "{what}: {strategy:?} latch netlist hash"
                );
                assert_eq!(got.cluster_enables, want.cluster_enables, "{what}");
                assert_eq!(got.pairs.len(), want.pairs.len(), "{what}: pairs");
                for (g, w) in got.pairs.iter().zip(&want.pairs) {
                    assert_eq!(
                        (g.register, g.cluster),
                        (w.register, w.cluster),
                        "{what}: pair"
                    );
                    assert_eq!(g.register_name.as_str(), w.register_name, "{what}");
                    assert_eq!(g.master.as_str(), w.master, "{what}");
                    assert_eq!(g.slave.as_str(), w.slave, "{what}");
                }
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{what}: {strategy:?} error"),
            (got, want) => panic!(
                "{what}: {strategy:?} conversion diverged: {:?} vs {:?}",
                got.map(|d| d.pairs.len()),
                want.map(|d| d.pairs.len())
            ),
        }
    }
    clean
}

/// SplitMix64, the generator of the repository benchmark's fabric.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A netlist with every defect the layers must report alike: gates read
/// any net (combinational cycles), some nets get a second driver or none,
/// some are never read, and some registers are latches, C-elements or
/// flip-flops on a second clock. Register names carry `[bit]` suffixes so
/// prefix clustering groups them.
fn defective(seed: u64, size: usize) -> Netlist {
    let mut rng = Rng::new(seed, 0xdef);
    let mut n = Netlist::new(format!("defective{seed}"));
    let clk = n.add_input("clk");
    let clk2 = n.add_input("clk2");
    let mut nets: Vec<NetId> = (0..3).map(|i| n.add_input(format!("in{i}"))).collect();
    nets.extend((0..2 * size).map(|i| n.add_net(format!("w{i}"))));
    let pick = |rng: &mut Rng| nets[rng.below(nets.len())];
    let kinds = [
        CellKind::And,
        CellKind::Nand,
        CellKind::Xor,
        CellKind::Not,
        CellKind::Buf,
        CellKind::Mux2,
    ];
    for i in 0..size {
        let out = nets[3 + i % (2 * size)];
        let name = format!("g{i}");
        match rng.below(12) {
            0 => {
                let (d, q) = (pick(&mut rng), pick(&mut rng));
                n.add_latch(format!("lat{}[{i}]", i % 3), d, clk, q, i % 2 == 0)
                    .unwrap();
            }
            1 => {
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                n.add_c_element(format!("c{i}"), &[a, b], out).unwrap();
            }
            2..=4 => {
                let clock = if rng.below(8) == 0 { clk2 } else { clk };
                n.add_dff(format!("bank{}[{i}]", i % 4), pick(&mut rng), clock, out)
                    .unwrap();
            }
            _ => {
                let kind = kinds[rng.below(kinds.len())];
                let arity = kind.fixed_arity().unwrap_or(2 + rng.below(2));
                let inputs: Vec<NetId> = (0..arity).map(|_| pick(&mut rng)).collect();
                // Now and then drive an already driven net a second time.
                let out = if rng.below(10) == 0 {
                    pick(&mut rng)
                } else {
                    out
                };
                n.add_gate(name, kind, &inputs, out).unwrap();
            }
        }
    }
    for _ in 0..3 {
        let net = pick(&mut rng);
        n.mark_output(net);
    }
    n
}

/// The acyclic counterpart of [`defective`]: gates read only earlier nets
/// and each net has one driver, so the conversion runs; flip-flop names
/// group into banks under prefix clustering.
fn banked(seed: u64, banks: usize, bits: usize, gates: usize) -> Netlist {
    let mut rng = Rng::new(seed, 0xba4c);
    let mut n = Netlist::new(format!("banked{seed}"));
    let clk = n.add_input("clk");
    let mut driven: Vec<NetId> = (0..2).map(|i| n.add_input(format!("in{i}"))).collect();
    let mut q = Vec::new();
    for b in 0..banks {
        for i in 0..bits {
            q.push((
                format!("bank{b}[{i}]"),
                n.add_net(format!("bank{b}_q[{i}]")),
            ));
        }
    }
    driven.extend(q.iter().map(|&(_, net)| net));
    for g in 0..gates {
        let a = driven[rng.below(driven.len())];
        let b = driven[rng.below(driven.len())];
        let y = n.add_net(format!("y{g}"));
        n.add_gate(format!("g{g}"), CellKind::Nand, &[a, b], y)
            .unwrap();
        driven.push(y);
    }
    for (name, out) in q {
        let d = driven[rng.below(driven.len())];
        n.add_dff(name, d, clk, out).unwrap();
    }
    for _ in 0..2 {
        let net = driven[rng.below(driven.len())];
        n.mark_output(net);
    }
    n
}

/// The repository benchmark's mesh fabric: `chains` register chains of
/// `stages` stages, each stage's NAND reading its own chain and one of the
/// next three, picked by the seed.
fn fabric(chains: usize, stages: usize, seed: u64) -> Netlist {
    let mut rng = Rng::new(seed, 0xfab);
    let mut n = Netlist::new(format!("fabric{chains}x{stages}"));
    let clk = n.add_input("clk");
    let seeds: Vec<NetId> = (0..chains)
        .map(|c| n.add_input(format!("seed[{c}]")))
        .collect();
    let q: Vec<Vec<NetId>> = (0..chains)
        .map(|c| {
            (0..stages)
                .map(|s| n.add_net(format!("c{c}_q[{s}]")))
                .collect()
        })
        .collect();
    for c in 0..chains {
        for s in 0..stages {
            let partner = (c + 1 + rng.below(3)) % chains;
            let (own, cross) = if s == 0 {
                (seeds[c], seeds[partner])
            } else {
                (q[c][s - 1], q[partner][s - 1])
            };
            let w = n.add_net(format!("c{c}_w[{s}]"));
            n.add_gate(format!("c{c}_g[{s}]"), CellKind::Nand, &[own, cross], w)
                .unwrap();
            n.add_dff(format!("c{c}_r[{s}]"), w, clk, q[c][s]).unwrap();
        }
        n.mark_output(q[c][stages - 1]);
    }
    n
}

#[test]
fn random_circuits_match_the_oracle() {
    for seed in 0..40u64 {
        let config = RandomCircuitConfig {
            inputs: 1 + (seed % 5) as usize,
            flip_flops: 1 + (seed % 13) as usize,
            gates: 5 + (seed * 7 % 60) as usize,
            outputs: 1 + (seed % 4) as usize,
            seed,
        };
        let netlist = config.generate().expect("valid random circuit");
        assert!(check(&netlist, &format!("random circuit {seed}")));
    }
}

#[test]
fn defective_netlists_match_the_oracle() {
    let (mut cycles, mut gated) = (0, 0);
    for seed in 0..60u64 {
        let netlist = defective(seed, 8 + (seed % 40) as usize);
        cycles += usize::from(find_combinational_cycle(&netlist).is_some());
        gated += usize::from(!check(&netlist, &format!("defective netlist {seed}")));
    }
    assert!(cycles > 10, "the generator must produce cycles ({cycles})");
    assert!(
        gated > 10,
        "the gate must refuse defective netlists ({gated})"
    );
    for seed in 0..20u64 {
        let netlist = banked(seed, 1 + (seed % 5) as usize, 1 + (seed % 7) as usize, 30);
        assert!(check(&netlist, &format!("banked netlist {seed}")));
    }
}

#[test]
fn test_data_files_match_the_oracle() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../netlist/tests/data");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("test data directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    let mut parsed = 0;
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable test data");
        // Files that exercise parse errors have no netlist to compare.
        if let Ok(netlist) = from_edif(&text) {
            check(&netlist, &path.display().to_string());
            parsed += 1;
        }
    }
    assert!(parsed >= 3, "only {parsed} test data files parse");
}

#[test]
fn benchmark_fabric_matches_the_oracle() {
    let netlist = from_edif(&to_edif(&fabric(200, 125, 1))).expect("fabric EDIF parses");
    assert_eq!(netlist.num_cells(), 50_000);
    assert!(check(&netlist, "50k-cell fabric"));
}
