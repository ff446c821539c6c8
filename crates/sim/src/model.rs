//! The compiled simulation model: everything about a netlist's structure
//! that every simulation run shares.
//!
//! A simulation run needs the whole flattened topology — fan-out counts,
//! per-cell delays, the CSR reader map and pin lists, the constant-driver
//! seeds — but none of it depends on the stimulus, the enable schedule, the
//! run length or the lane width. For a verification sweep that simulates
//! the same latch netlist once per protocol × margin point, deriving it per
//! run would be pure waste.
//!
//! [`CompiledModel`] captures exactly the shareable half: it is a pure
//! function of `(netlist, library, SimConfig)`, immutable after
//! [`CompiledModel::compile`], and cheap to share behind an `Arc`. A
//! [`Simulator`](crate::Simulator) of either lane width is then a *cursor*
//! over the model — per-run mutable state only (net values, the event
//! queue, activity counters, captures, watch list) — so sweep points and
//! campaign points re-bind their schedules and inputs onto one compiled
//! model instead of recompiling it.
//! `desync-core` caches compiled models in its artifact store keyed by the
//! netlist identity and the `SimConfig` bits.

use crate::engine::SimConfig;
use desync_netlist::{CellId, CellKind, CellLibrary, NetId, Netlist, Value};

/// The immutable, shareable half of a simulation: flattened topology and
/// per-cell delays for one `(netlist, library, config)` triple.
///
/// See the [module documentation](self). All fields are derived; two models
/// compiled from equal inputs are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    pub(crate) config: SimConfig,
    num_nets: usize,
    /// CSR net → reader cells: readers of net `n` are
    /// `reader_cells[reader_offsets[n]..reader_offsets[n + 1]]`.
    pub(crate) reader_offsets: Vec<u32>,
    pub(crate) reader_cells: Vec<CellId>,
    /// Flattened cell metadata (kind, output, input CSR), so the hot path
    /// never chases the netlist's per-cell `Vec<NetId>` pin lists.
    pub(crate) cell_kind: Vec<CellKind>,
    pub(crate) cell_output: Vec<NetId>,
    pub(crate) input_offsets: Vec<u32>,
    pub(crate) input_nets: Vec<NetId>,
    pub(crate) cell_delay: Vec<f64>,
    /// Constant drivers have no inputs, so nothing would ever trigger their
    /// evaluation; every fresh cursor seeds these outputs at time zero, in
    /// netlist cell order (the order matters: it fixes the pop order among
    /// events at equal times, keeping cursor runs bit-identical to the old
    /// constructor).
    pub(crate) const_seeds: Vec<(NetId, Value)>,
    /// Output nets of all sequential cells (flip-flops and latches), in
    /// netlist cell order, for
    /// [`Simulator::initialize_registers`](crate::Simulator::initialize_registers).
    pub(crate) register_outputs: Vec<NetId>,
}

impl CompiledModel {
    /// Compiles `netlist` against `library` under `config`.
    ///
    /// This performs every structure-dependent derivation the simulator
    /// needs — the result can drive any number of concurrent cursors.
    pub fn compile(netlist: &Netlist, library: &CellLibrary, config: SimConfig) -> Self {
        let fanout = netlist.fanout_map();
        let num_nets = netlist.num_nets();
        let num_cells = netlist.num_cells();

        let mut cell_kind = Vec::with_capacity(num_cells);
        let mut cell_output = Vec::with_capacity(num_cells);
        let mut cell_delay = Vec::with_capacity(num_cells);
        let mut input_offsets = Vec::with_capacity(num_cells + 1);
        let mut input_nets = Vec::new();
        let mut const_seeds = Vec::new();
        let mut register_outputs = Vec::new();
        input_offsets.push(0u32);
        for (_, c) in netlist.cells() {
            let fo = fanout[c.output.index()].max(1);
            let base = match c.kind {
                CellKind::Dff => config.clk_to_q_ps,
                CellKind::LatchLow | CellKind::LatchHigh => config.latch_d_to_q_ps,
                _ => library
                    .template(c.kind)
                    .instance_delay_ps(c.inputs.len().max(1), fo),
            };
            cell_kind.push(c.kind);
            cell_output.push(c.output);
            cell_delay.push(base + config.wire_delay_per_fanout_ps * fo as f64);
            input_nets.extend_from_slice(&c.inputs);
            input_offsets.push(input_nets.len() as u32);
            match c.kind {
                CellKind::Const0 => const_seeds.push((c.output, Value::Zero)),
                CellKind::Const1 => const_seeds.push((c.output, Value::One)),
                CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh => {
                    register_outputs.push(c.output)
                }
                _ => {}
            }
        }

        // CSR reader map: count, prefix-sum, fill. A flip-flop only reacts
        // to its clock pin (the data pin is merely sampled at the edge), so
        // it is not registered as a reader of its data net — pruning the
        // no-op evaluation that every data-net commit would otherwise
        // trigger. (When data and clock share a net the reader must stay.)
        let reads = |kind: CellKind, inputs: &[NetId], position: usize| -> bool {
            !(kind == CellKind::Dff && position == 0 && inputs[0] != inputs[1])
        };
        let mut reader_offsets = vec![0u32; num_nets + 1];
        for (_, c) in netlist.cells() {
            for (position, &input) in c.inputs.iter().enumerate() {
                if reads(c.kind, &c.inputs, position) {
                    reader_offsets[input.index() + 1] += 1;
                }
            }
        }
        for i in 0..num_nets {
            reader_offsets[i + 1] += reader_offsets[i];
        }
        let mut reader_cells = vec![CellId(0); reader_offsets[num_nets] as usize];
        let mut fill = reader_offsets.clone();
        for (id, c) in netlist.cells() {
            for (position, &input) in c.inputs.iter().enumerate() {
                if reads(c.kind, &c.inputs, position) {
                    let slot = &mut fill[input.index()];
                    reader_cells[*slot as usize] = id;
                    *slot += 1;
                }
            }
        }

        Self {
            config,
            num_nets,
            reader_offsets,
            reader_cells,
            cell_kind,
            cell_output,
            input_offsets,
            input_nets,
            cell_delay,
            const_seeds,
            register_outputs,
        }
    }

    /// The configuration the model was compiled under.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Number of nets in the compiled netlist.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of cells in the compiled netlist.
    pub fn num_cells(&self) -> usize {
        self.cell_kind.len()
    }

    /// Approximate retained size in flat-array elements (the weight unit
    /// `desync-core`'s artifact store accounts compiled models in).
    pub fn footprint(&self) -> usize {
        self.reader_offsets.len()
            + self.reader_cells.len()
            + self.cell_kind.len()
            + self.cell_output.len()
            + self.input_offsets.len()
            + self.input_nets.len()
            + self.cell_delay.len()
            + self.const_seeds.len()
            + self.register_outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desync_netlist::CellKind;

    #[test]
    fn compile_is_a_pure_function_of_its_inputs() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        let w = n.add_net("w");
        n.add_gate("g", CellKind::Not, &[d], w).unwrap();
        n.add_dff("r", w, clk, q).unwrap();
        let library = CellLibrary::generic_90nm();
        let a = CompiledModel::compile(&n, &library, SimConfig::default());
        let b = CompiledModel::compile(&n, &library, SimConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.num_nets(), n.num_nets());
        assert_eq!(a.num_cells(), n.num_cells());
        assert_eq!(a.register_outputs, vec![q]);
        assert!(a.const_seeds.is_empty());
        assert!(a.footprint() > 0);
    }

    #[test]
    fn constant_drivers_become_seeds() {
        let mut n = Netlist::new("t");
        let y = n.add_output("y");
        let z = n.add_output("z");
        n.add_gate("c1", CellKind::Const1, &[], y).unwrap();
        n.add_gate("c0", CellKind::Const0, &[], z).unwrap();
        let library = CellLibrary::generic_90nm();
        let model = CompiledModel::compile(&n, &library, SimConfig::default());
        assert_eq!(model.const_seeds, vec![(y, Value::One), (z, Value::Zero)]);
    }
}
