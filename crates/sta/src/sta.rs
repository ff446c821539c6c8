//! Longest-path static timing analysis over the combinational core of a
//! netlist.

use desync_netlist::analysis::topological_order;
use desync_netlist::{CellId, CellKind, CellLibrary, NetId, Netlist};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Global timing parameters: the wire-load model and the sequential cell
/// overheads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Extra wire delay per fan-out sink, in picoseconds.
    pub wire_delay_per_fanout_ps: f64,
    /// Flip-flop / latch setup time in picoseconds.
    pub setup_ps: f64,
    /// Flip-flop clock-to-Q (or latch enable-to-Q) delay in picoseconds.
    pub clk_to_q_ps: f64,
    /// Latch D-to-Q propagation delay when transparent, in picoseconds.
    pub latch_d_to_q_ps: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            wire_delay_per_fanout_ps: 4.0,
            setup_ps: 40.0,
            clk_to_q_ps: 110.0,
            latch_d_to_q_ps: 70.0,
        }
    }
}

/// The worst combinational path found by [`Sta::critical_path`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Total combinational delay along the path, in picoseconds.
    pub delay_ps: f64,
    /// Cells on the path, from source to sink.
    pub cells: Vec<CellId>,
    /// The net at which the worst arrival time was observed.
    pub endpoint: NetId,
}

/// Worst-case combinational delay in front of one register, measured from
/// the outputs of the registers (and primary inputs) feeding it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageDelay {
    /// The destination register.
    pub register: CellId,
    /// Worst-case combinational delay at its data input, in picoseconds.
    pub delay_ps: f64,
}

/// A static timing analyzer bound to one netlist and one cell library.
#[derive(Debug, Clone)]
pub struct Sta<'a> {
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    config: TimingConfig,
    /// The combinational cells in topological order; a cell's index here is
    /// its *rank*.
    topo: Vec<CellId>,
    driver: Vec<Option<CellId>>,
    fanout: Vec<usize>,
    /// CSR map from each net to the ranks of the combinational cells
    /// reading it: net `n`'s readers are
    /// `readers[reader_start[n]..reader_start[n + 1]]`, in rank order.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
}

impl<'a> Sta<'a> {
    /// Creates an analyzer for `netlist` using `library` and `config`.
    ///
    /// # Panics
    ///
    /// Panics if the combinational core of the netlist contains a cycle;
    /// run [`Netlist::validate`] first to get a proper error.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary, config: TimingConfig) -> Self {
        let topo = topological_order(netlist)
            .expect("netlist has a combinational cycle; validate() it before timing analysis");
        let driver = netlist.driver_map();
        let fanout = netlist.fanout_map();
        let mut reader_start = vec![0u32; netlist.num_nets() + 1];
        for &cell in &topo {
            for &input in &netlist.cell(cell).inputs {
                reader_start[input.index() + 1] += 1;
            }
        }
        for i in 1..reader_start.len() {
            reader_start[i] += reader_start[i - 1];
        }
        let mut cursor = reader_start.clone();
        let mut readers =
            vec![0u32; *reader_start.last().expect("one entry per net plus one") as usize];
        for (rank, &cell) in topo.iter().enumerate() {
            for &input in &netlist.cell(cell).inputs {
                let slot = &mut cursor[input.index()];
                readers[*slot as usize] = rank as u32;
                *slot += 1;
            }
        }
        Self {
            netlist,
            library,
            config,
            topo,
            driver,
            fanout,
            reader_start,
            readers,
        }
    }

    /// The timing configuration in use.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// The propagation delay of one cell instance, including the wire-load
    /// contribution of its output net.
    pub fn cell_delay_ps(&self, cell: CellId) -> f64 {
        let c = self.netlist.cell(cell);
        let fanout = self.fanout[c.output.index()].max(1);
        let gate = self
            .library
            .template(c.kind)
            .instance_delay_ps(c.inputs.len().max(1), fanout);
        gate + self.config.wire_delay_per_fanout_ps * fanout as f64
    }

    /// Longest combinational delay from any net in `sources` to every net.
    ///
    /// Returns one entry per net: `None` when the net is not reachable from
    /// the sources through combinational logic, otherwise the worst-case
    /// arrival time in picoseconds (sources themselves arrive at 0).
    ///
    /// This walks every combinational cell of the netlist; when the sources
    /// reach only a small part of it, [`Sta::cone_arrival_from`] gives the
    /// same arrivals for the work of that part.
    pub fn arrival_from(&self, sources: &[NetId]) -> Vec<Option<f64>> {
        let mut arrival: Vec<Option<f64>> = vec![None; self.netlist.num_nets()];
        for &s in sources {
            arrival[s.index()] = Some(0.0);
        }
        for &cell_id in &self.topo {
            self.fold_cell(cell_id, &mut arrival);
        }
        arrival
    }

    /// Walks only the forward cone of `sources`, writing into `cone` the
    /// arrivals [`Sta::arrival_from`] gives for the same sources,
    /// bit for bit: `cone.get(net)` equals `arrival_from(sources)[net]` on
    /// every net.
    ///
    /// The walk visits the cone's cells in topological rank order and folds
    /// each exactly as the full walk does; a cell outside the cone has no
    /// input with an arrival, so the full walk leaves its output untouched
    /// too. `cone` is reset first in time proportional to what its previous
    /// walk touched, so one buffer serves many walks.
    pub fn cone_arrival_from(&self, sources: &[NetId], cone: &mut ConeArrivals) {
        cone.reset(self.netlist.num_nets(), self.topo.len());
        for &s in sources {
            cone.arrive(s);
            self.queue_readers(s, None, cone);
        }
        while let Some(Reverse(rank)) = cone.pending.pop() {
            let cell_id = self.topo[rank as usize];
            let output = self.netlist.cell(cell_id).output;
            cone.touched.push(output);
            let fired = self.fold_cell(cell_id, &mut cone.arrival);
            debug_assert!(fired, "a queued cell reads a net with an arrival");
            // Readers ranked at or below this cell already ran in the full
            // walk's order (only possible on a multi-driven net), so they
            // must not see this arrival.
            self.queue_readers(output, Some(rank), cone);
        }
    }

    /// Queues every not-yet-queued combinational reader of `net` ranked
    /// above `after`.
    fn queue_readers(&self, net: NetId, after: Option<u32>, cone: &mut ConeArrivals) {
        let (start, end) = (
            self.reader_start[net.index()] as usize,
            self.reader_start[net.index() + 1] as usize,
        );
        for &rank in &self.readers[start..end] {
            if after.is_some_and(|after| rank <= after) || cone.queued[rank as usize] {
                continue;
            }
            cone.queued[rank as usize] = true;
            cone.queued_ranks.push(rank);
            cone.pending.push(Reverse(rank));
        }
    }

    /// The per-cell step of both arrival walks: folds the arrivals at
    /// `cell_id`'s inputs, adds the cell's delay and merges the result into
    /// its output net. Returns `false`, writing nothing, when no input has
    /// an arrival.
    fn fold_cell(&self, cell_id: CellId, arrival: &mut [Option<f64>]) -> bool {
        let cell = self.netlist.cell(cell_id);
        debug_assert!(cell.kind.is_combinational());
        let mut worst: Option<f64> = None;
        for &input in &cell.inputs {
            if let Some(a) = arrival[input.index()] {
                worst = Some(worst.map_or(a, |w: f64| w.max(a)));
            }
        }
        let Some(w) = worst else {
            return false;
        };
        let out_arrival = w + self.cell_delay_ps(cell_id);
        let slot = &mut arrival[cell.output.index()];
        *slot = Some(slot.map_or(out_arrival, |v| v.max(out_arrival)));
        true
    }

    /// The source nets of register-to-register timing: outputs of all
    /// sequential cells plus all primary inputs.
    pub fn default_sources(&self) -> Vec<NetId> {
        let mut sources: Vec<NetId> = self
            .netlist
            .sequential_cells()
            .map(|(_, c)| c.output)
            .collect();
        sources.extend(self.netlist.inputs().iter().copied());
        sources
    }

    /// Worst-case combinational arrival time at every net, measured from all
    /// register outputs and primary inputs.
    pub fn arrival_all(&self) -> Vec<Option<f64>> {
        self.arrival_from(&self.default_sources())
    }

    /// The worst combinational path in the netlist (register/input to
    /// register/output), with the cells along it.
    pub fn critical_path(&self) -> CriticalPath {
        let arrival = self.arrival_all();
        // Endpoints: data inputs of sequential cells and primary outputs.
        let mut endpoints: Vec<NetId> = Vec::new();
        for (_, cell) in self.netlist.sequential_cells() {
            if let Some(d) = cell.data_net() {
                endpoints.push(d);
            }
        }
        endpoints.extend(self.netlist.outputs().iter().copied());

        let mut best_net = None;
        let mut best = 0.0_f64;
        for &net in &endpoints {
            if let Some(a) = arrival[net.index()] {
                if a > best {
                    best = a;
                    best_net = Some(net);
                }
            }
        }
        let endpoint = best_net.unwrap_or(NetId(0));
        // Reconstruct the path by walking drivers backwards, always picking
        // the input with the largest arrival.
        let mut cells = Vec::new();
        let mut net = endpoint;
        let source_set: HashSet<NetId> = self.default_sources().into_iter().collect();
        while let Some(cell_id) = self.driver[net.index()] {
            let cell = self.netlist.cell(cell_id);
            if !cell.kind.is_combinational() {
                break;
            }
            cells.push(cell_id);
            // Next net: the input with the largest arrival.
            let mut next: Option<(NetId, f64)> = None;
            for &input in &cell.inputs {
                if let Some(a) = arrival[input.index()] {
                    if next.is_none_or(|(_, na)| a > na) {
                        next = Some((input, a));
                    }
                }
            }
            match next {
                Some((n, _)) if !source_set.contains(&n) => net = n,
                _ => break,
            }
        }
        cells.reverse();
        CriticalPath {
            delay_ps: best,
            cells,
            endpoint,
        }
    }

    /// Worst-case combinational delay at the data input of every register
    /// (flip-flop or latch), measured from all register outputs and primary
    /// inputs.
    pub fn stage_delays(&self) -> Vec<StageDelay> {
        self.stage_delays_in(&self.arrival_all())
    }

    fn stage_delays_in(&self, arrival: &[Option<f64>]) -> Vec<StageDelay> {
        self.netlist
            .cells()
            .filter(|(_, c)| c.kind == CellKind::Dff || c.kind.is_latch())
            .map(|(id, c)| {
                let delay = c.data_net().and_then(|d| arrival[d.index()]).unwrap_or(0.0);
                StageDelay {
                    register: id,
                    delay_ps: delay,
                }
            })
            .collect()
    }

    /// Longest combinational delay from the outputs of the registers in
    /// `src` (given as their output nets) to the data input of register
    /// `dst`. Returns `None` when there is no combinational path.
    pub fn path_delay(&self, src_outputs: &[NetId], dst: CellId) -> Option<f64> {
        let arrival = self.arrival_from(src_outputs);
        let d = self.netlist.cell(dst).data_net()?;
        arrival[d.index()]
    }

    /// The worst combinational delay to any primary output.
    pub fn output_delay(&self) -> f64 {
        self.output_delay_in(&self.arrival_all())
    }

    fn output_delay_in(&self, arrival: &[Option<f64>]) -> f64 {
        self.netlist
            .outputs()
            .iter()
            .filter_map(|&o| arrival[o.index()])
            .fold(0.0, f64::max)
    }

    /// The minimum clock period of the synchronous (flip-flop based)
    /// netlist: worst stage delay plus clock-to-Q and setup. Both maxima
    /// come from one arrival walk.
    pub fn clock_period(&self) -> f64 {
        let arrival = self.arrival_all();
        let worst_stage = self
            .stage_delays_in(&arrival)
            .iter()
            .map(|s| s.delay_ps)
            .fold(0.0, f64::max)
            .max(self.output_delay_in(&arrival));
        self.config.clk_to_q_ps + worst_stage + self.config.setup_ps
    }
}

/// The reusable buffer of [`Sta::cone_arrival_from`]: dense per-net
/// arrivals plus the list of nets and cells the last walk touched, so the
/// next walk resets in time proportional to that list, not to the netlist.
/// A default buffer is empty and grows to the analyzed netlist on its first
/// walk.
#[derive(Debug, Clone, Default)]
pub struct ConeArrivals {
    arrival: Vec<Option<f64>>,
    touched: Vec<NetId>,
    /// Per rank: whether the cell has been queued in the current walk.
    queued: Vec<bool>,
    /// The ranks queued in the current walk; every one is visited.
    queued_ranks: Vec<u32>,
    pending: BinaryHeap<Reverse<u32>>,
}

impl ConeArrivals {
    /// The last walk's arrival at `net`: `None` when the net is not
    /// reachable from its sources.
    pub fn get(&self, net: NetId) -> Option<f64> {
        self.arrival.get(net.index()).copied().flatten()
    }

    /// How many combinational cells the last walk visited: the size of its
    /// sources' forward cone.
    pub fn cells_visited(&self) -> usize {
        self.queued_ranks.len()
    }

    fn reset(&mut self, nets: usize, cells: usize) {
        for net in self.touched.drain(..) {
            self.arrival[net.index()] = None;
        }
        for rank in self.queued_ranks.drain(..) {
            self.queued[rank as usize] = false;
        }
        self.arrival.resize(nets.max(self.arrival.len()), None);
        self.queued.resize(cells.max(self.queued.len()), false);
    }

    /// Marks `net` as a source: it arrives at time zero.
    fn arrive(&mut self, net: NetId) {
        self.touched.push(net);
        self.arrival[net.index()] = Some(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellLibrary;

    /// r0 -> inv -> inv -> r1, plus r0 -> (direct) -> output.
    fn pipeline() -> Netlist {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let q0 = n.add_net("q0");
        let w1 = n.add_net("w1");
        let w2 = n.add_net("w2");
        let q1 = n.add_net("q1");
        let out = n.add_output("out");
        n.add_dff("r0", a, clk, q0).unwrap();
        n.add_gate("g1", CellKind::Not, &[q0], w1).unwrap();
        n.add_gate("g2", CellKind::Not, &[w1], w2).unwrap();
        n.add_dff("r1", w2, clk, q1).unwrap();
        n.add_gate("g3", CellKind::Buf, &[q1], out).unwrap();
        n
    }

    fn lib() -> CellLibrary {
        CellLibrary::generic_90nm()
    }

    #[test]
    fn cell_delay_positive_and_fanout_sensitive() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let g1 = n.find_cell("g1").unwrap();
        assert!(sta.cell_delay_ps(g1) > 0.0);
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let arrival = sta.arrival_all();
        let w1 = n.find_net("w1").unwrap();
        let w2 = n.find_net("w2").unwrap();
        let a1 = arrival[w1.index()].unwrap();
        let a2 = arrival[w2.index()].unwrap();
        assert!(a2 > a1);
        assert!(a1 > 0.0);
        // The clock net is not reachable combinationally from any source.
        let clk = n.find_net("clk").unwrap();
        // clk is itself a primary input so it is a source with arrival 0.
        assert_eq!(arrival[clk.index()], Some(0.0));
    }

    #[test]
    fn arrival_from_specific_source() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let q0 = n.find_net("q0").unwrap();
        let arrival = sta.arrival_from(&[q0]);
        let w2 = n.find_net("w2").unwrap();
        assert!(arrival[w2.index()].unwrap() > 0.0);
        // The input `a` is not reachable from q0.
        let a = n.find_net("a").unwrap();
        assert_eq!(arrival[a.index()], None);
    }

    #[test]
    fn critical_path_goes_through_both_inverters() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let cp = sta.critical_path();
        assert!(cp.delay_ps > 0.0);
        let names: Vec<&str> = cp.cells.iter().map(|&c| n.cell(c).name.as_str()).collect();
        assert_eq!(names, vec!["g1", "g2"]);
        assert_eq!(cp.endpoint, n.find_net("w2").unwrap());
    }

    #[test]
    fn stage_delays_per_register() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let stages = sta.stage_delays();
        assert_eq!(stages.len(), 2);
        let r0 = n.find_cell("r0").unwrap();
        let r1 = n.find_cell("r1").unwrap();
        let d0 = stages.iter().find(|s| s.register == r0).unwrap().delay_ps;
        let d1 = stages.iter().find(|s| s.register == r1).unwrap().delay_ps;
        // r0 is fed directly from a primary input: no gate delay.
        assert_eq!(d0, 0.0);
        assert!(d1 > 0.0);
    }

    #[test]
    fn clock_period_exceeds_worst_stage() {
        let n = pipeline();
        let l = lib();
        let cfg = TimingConfig::default();
        let sta = Sta::new(&n, &l, cfg);
        let worst = sta
            .stage_delays()
            .iter()
            .map(|s| s.delay_ps)
            .fold(0.0, f64::max);
        assert!(sta.clock_period() >= worst + cfg.clk_to_q_ps + cfg.setup_ps - 1e-9);
    }

    #[test]
    fn path_delay_between_registers() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let q0 = n.find_net("q0").unwrap();
        let r1 = n.find_cell("r1").unwrap();
        let r0 = n.find_cell("r0").unwrap();
        assert!(sta.path_delay(&[q0], r1).unwrap() > 0.0);
        // No path from r1's output back to r0.
        let q1 = n.find_net("q1").unwrap();
        assert_eq!(sta.path_delay(&[q1], r0), None);
    }

    #[test]
    fn output_delay_counts_po_logic() {
        let n = pipeline();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        assert!(sta.output_delay() > 0.0);
    }

    #[test]
    fn cone_walk_keeps_rank_order_on_a_multi_driven_net() {
        // `n` has two drivers. The reader `r` depends on the last one
        // (`a`), so it ranks before the slow driver `b`: in the full walk
        // from `z`, `r` runs before `b` writes `n` and never fires.
        let mut n = Netlist::new("multi");
        let z = n.add_input("z");
        let x = n.add_input("x");
        let z1 = n.add_net("z1");
        let z2 = n.add_net("z2");
        let shared = n.add_net("n");
        let y = n.add_output("y");
        n.add_gate("c1", CellKind::Buf, &[z], z1).unwrap();
        n.add_gate("c2", CellKind::Buf, &[z1], z2).unwrap();
        n.add_gate("b", CellKind::Not, &[z2], shared).unwrap();
        n.add_gate("a", CellKind::Not, &[x], shared).unwrap();
        n.add_gate("r", CellKind::Buf, &[shared], y).unwrap();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        let mut cone = ConeArrivals::default();
        for sources in [vec![z], vec![x], vec![x, z], vec![]] {
            let full = sta.arrival_from(&sources);
            sta.cone_arrival_from(&sources, &mut cone);
            for (id, _) in n.nets() {
                assert_eq!(cone.get(id), full[id.index()], "{sources:?}");
            }
        }
        sta.cone_arrival_from(&[z], &mut cone);
        assert_eq!(cone.get(y), None);
        assert_eq!(cone.cells_visited(), 3);
    }

    #[test]
    fn combinational_only_netlist() {
        let mut n = Netlist::new("comb");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Nand, &[a, b], y).unwrap();
        let l = lib();
        let sta = Sta::new(&n, &l, TimingConfig::default());
        assert!(sta.stage_delays().is_empty());
        assert!(sta.clock_period() > 0.0); // still includes FF overheads
        let cp = sta.critical_path();
        assert_eq!(cp.cells.len(), 1);
    }
}
