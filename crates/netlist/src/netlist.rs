//! The flat gate-level netlist container and its builder API.

use crate::cell::{Cell, CellId, CellKind};
use crate::error::NetlistError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a net (a single-driver wire) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of a primary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDirection {
    /// Driven from outside the netlist.
    Input,
    /// Observed from outside the netlist.
    Output,
}

/// A named wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Net name (unique within the netlist), interned in the global
    /// [`Symbol`] table.
    pub name: Symbol,
}

/// A flat gate-level netlist.
///
/// The netlist owns its nets and cell instances and exposes a builder-style
/// API ([`Netlist::add_gate`], [`Netlist::add_dff`], ...) plus structural
/// queries. Deeper analyses (topological order, stage extraction) live in
/// [`crate::analysis`].
///
/// Equality compares the module name, the nets, the cells and the two port
/// lists, in id order — everything [`Netlist::structural_hash`] covers. It
/// ignores the lookup indexes derived from those lists and the
/// [`Netlist::add_net`] suffix cache, so a netlist equals its EDIF
/// round-trip and the same netlist built with its suffixed names spelled
/// out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: Symbol,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    // The indexes below are keyed by interned symbols and ids the program
    // assigns, so they use the fixed-seed `FxHasher`.
    #[serde(skip)]
    net_index: FxHashMap<Symbol, NetId>,
    #[serde(skip)]
    cell_index: FxHashMap<Symbol, CellId>,
    /// Next numeric suffix to try per duplicated base name, so
    /// [`Netlist::add_net`] stays O(1) amortized when a flattener emits many
    /// copies of the same base (rebuilt lazily, see
    /// [`Netlist::rebuild_index`]). A cache: it only skips candidates that
    /// are already taken, so it never changes a later name.
    #[serde(skip)]
    net_suffix: FxHashMap<Symbol, u32>,
    /// Members of `inputs` and `outputs`, so marking a port is O(1). Each
    /// set holds exactly its list's elements (the lists never repeat a
    /// net).
    #[serde(skip)]
    input_set: FxHashSet<NetId>,
    #[serde(skip)]
    output_set: FxHashSet<NetId>,
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nets == other.nets
            && self.cells == other.cells
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<Symbol>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            net_index: FxHashMap::default(),
            cell_index: FxHashMap::default(),
            net_suffix: FxHashMap::default(),
            input_set: FxHashSet::default(),
            output_set: FxHashSet::default(),
        }
    }

    /// A netlist named `name` with the nets of `self` — the same ids and
    /// names — and no ports or cells yet.
    ///
    /// Copies the net list and its name index as they are, instead of
    /// re-adding (and re-hashing) every net.
    pub fn with_nets_of(&self, name: impl Into<Symbol>) -> Self {
        let mut out = Self::new(name);
        out.nets = self.nets.clone();
        out.net_index = if self.net_index.len() == self.nets.len() {
            self.net_index.clone()
        } else {
            // Deserialized without `rebuild_index`: index the copy afresh.
            net_index_of(&self.nets)
        };
        out
    }

    /// The module name.
    pub fn name(&self) -> &'static str {
        self.name.as_str()
    }

    /// The module name as its interned symbol.
    pub fn name_symbol(&self) -> Symbol {
        self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<Symbol>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a new net with a unique name and returns its id.
    ///
    /// If the name is already taken, a numeric suffix is appended so the
    /// builder can be used without bookkeeping; use [`Netlist::try_add_net`]
    /// when duplicate names must be an error. A per-base next-suffix counter
    /// keeps this O(1) amortized even when a hierarchy flattener emits
    /// thousands of copies of the same base name.
    pub fn add_net(&mut self, name: impl Into<Symbol>) -> NetId {
        let base: Symbol = name.into();
        if !self.net_index.contains_key(&base) {
            return self.push_net(base);
        }
        let mut i = self.net_suffix.get(&base).copied().unwrap_or(1);
        loop {
            let candidate = Symbol::intern(&format!("{base}_{i}"));
            i += 1;
            if !self.net_index.contains_key(&candidate) {
                self.net_suffix.insert(base, i);
                return self.push_net(candidate);
            }
        }
    }

    /// Adds a new net, failing if the name is already used.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if a net with the same name
    /// already exists.
    pub fn try_add_net(&mut self, name: impl Into<Symbol>) -> Result<NetId, NetlistError> {
        let name: Symbol = name.into();
        if self.net_index.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name.to_string()));
        }
        Ok(self.push_net(name))
    }

    fn push_net(&mut self, name: Symbol) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.net_index.insert(name, id);
        self.nets.push(Net { name });
        id
    }

    /// Adds a primary input: a fresh net marked as externally driven.
    pub fn add_input(&mut self, name: impl Into<Symbol>) -> NetId {
        let id = self.add_net(name);
        self.mark_input(id);
        id
    }

    /// Adds a primary output: a fresh net marked as externally observed.
    ///
    /// The returned net must later be driven by some cell (checked by
    /// [`Netlist::validate`]).
    pub fn add_output(&mut self, name: impl Into<Symbol>) -> NetId {
        let id = self.add_net(name);
        self.mark_output(id);
        id
    }

    /// Marks an existing net as a primary input (once; O(1)).
    pub fn mark_input(&mut self, net: NetId) {
        mark_port(&mut self.inputs, &mut self.input_set, net);
    }

    /// Marks an existing net as a primary output (once; O(1)).
    pub fn mark_output(&mut self, net: NetId) {
        mark_port(&mut self.outputs, &mut self.output_set, net);
    }

    /// Adds a combinational gate driving `output` from `inputs`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateCell`] if the instance name is taken.
    /// * [`NetlistError::ArityMismatch`] if the kind has a fixed arity that
    ///   does not match `inputs.len()`.
    /// * [`NetlistError::InvalidNetId`] if a net id is out of range.
    pub fn add_gate(
        &mut self,
        name: impl Into<Symbol>,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        self.add_cell(Cell {
            name: name.into(),
            kind,
            inputs: inputs.to_vec(),
            output,
        })
    }

    /// Adds a rising-edge D flip-flop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_dff(
        &mut self,
        name: impl Into<Symbol>,
        d: NetId,
        clk: NetId,
        q: NetId,
    ) -> Result<CellId, NetlistError> {
        self.add_cell(Cell {
            name: name.into(),
            kind: CellKind::Dff,
            inputs: vec![d, clk],
            output: q,
        })
    }

    /// Adds a level-sensitive latch.
    ///
    /// `transparent_high` selects between [`CellKind::LatchHigh`] (odd /
    /// slave latches in the desynchronization model) and
    /// [`CellKind::LatchLow`] (even / master latches).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_latch(
        &mut self,
        name: impl Into<Symbol>,
        d: NetId,
        enable: NetId,
        q: NetId,
        transparent_high: bool,
    ) -> Result<CellId, NetlistError> {
        let kind = if transparent_high {
            CellKind::LatchHigh
        } else {
            CellKind::LatchLow
        };
        self.add_cell(Cell {
            name: name.into(),
            kind,
            inputs: vec![d, enable],
            output: q,
        })
    }

    /// Adds a Muller C-element with an arbitrary number of inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_c_element(
        &mut self,
        name: impl Into<Symbol>,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        self.add_cell(Cell {
            name: name.into(),
            kind: CellKind::CElement,
            inputs: inputs.to_vec(),
            output,
        })
    }

    /// Adds a constant driver for `output`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_const(
        &mut self,
        name: impl Into<Symbol>,
        value: bool,
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        let kind = if value {
            CellKind::Const1
        } else {
            CellKind::Const0
        };
        self.add_cell(Cell {
            name: name.into(),
            kind,
            inputs: Vec::new(),
            output,
        })
    }

    /// Adds an arbitrary cell instance.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateCell`] if the instance name is taken.
    /// * [`NetlistError::ArityMismatch`] for fixed-arity kinds wired with the
    ///   wrong input count.
    /// * [`NetlistError::InvalidNetId`] if any referenced net does not exist.
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, NetlistError> {
        if self.cell_index.contains_key(&cell.name) {
            return Err(NetlistError::DuplicateCell(cell.name.to_string()));
        }
        if let Some(expected) = cell.kind.fixed_arity() {
            if cell.inputs.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    cell: cell.name.to_string(),
                    expected,
                    found: cell.inputs.len(),
                });
            }
        }
        for &net in cell.inputs.iter().chain(std::iter::once(&cell.output)) {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::InvalidNetId(net));
            }
        }
        let id = CellId(self.cells.len() as u32);
        self.cell_index.insert(cell.name, id);
        self.cells.push(cell);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a net by name.
    ///
    /// Probes the global interner without growing it, so lookups of unknown
    /// names stay allocation-free.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        Symbol::probe(name).and_then(|s| self.net_index.get(&s).copied())
    }

    /// Looks up a net by its interned symbol (the O(1) hot-path variant).
    pub fn find_net_symbol(&self, name: Symbol) -> Option<NetId> {
        self.net_index.get(&name).copied()
    }

    /// Looks up a cell by name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        Symbol::probe(name).and_then(|s| self.cell_index.get(&s).copied())
    }

    /// Looks up a cell by its interned symbol (the O(1) hot-path variant).
    pub fn find_cell_symbol(&self, name: Symbol) -> Option<CellId> {
        self.cell_index.get(&name).copied()
    }

    /// Iterates over `(NetId, &Net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over `(CellId, &Cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of D flip-flops.
    pub fn num_flip_flops(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.kind == CellKind::Dff)
            .count()
    }

    /// Number of level-sensitive latches.
    pub fn num_latches(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_latch()).count()
    }

    /// Number of purely combinational cells.
    pub fn num_combinational(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.kind.is_combinational())
            .count()
    }

    /// Iterates over the flip-flop cells.
    pub fn flip_flops(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind == CellKind::Dff)
    }

    /// Iterates over the latch cells.
    pub fn latches(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind.is_latch())
    }

    /// Iterates over sequential cells (flip-flops, latches, C-elements).
    pub fn sequential_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind.is_sequential())
    }

    /// The cell driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<CellId> {
        self.cells()
            .find(|(_, c)| c.output == net)
            .map(|(id, _)| id)
    }

    /// Builds a map from net to its driving cell, for repeated lookups.
    pub fn driver_map(&self) -> Vec<Option<CellId>> {
        let mut map = vec![None; self.nets.len()];
        for (id, cell) in self.cells() {
            map[cell.output.index()] = Some(id);
        }
        map
    }

    /// Builds a map from net to the cells reading it.
    pub fn reader_map(&self) -> Vec<Vec<CellId>> {
        let mut map = vec![Vec::new(); self.nets.len()];
        for (id, cell) in self.cells() {
            for &input in &cell.inputs {
                map[input.index()].push(id);
            }
        }
        map
    }

    /// Fan-out count per net (readers plus one if it is a primary output).
    pub fn fanout_map(&self) -> Vec<usize> {
        let mut map = vec![0usize; self.nets.len()];
        for cell in &self.cells {
            for &input in &cell.inputs {
                map[input.index()] += 1;
            }
        }
        for &out in &self.outputs {
            map[out.index()] += 1;
        }
        map
    }

    /// All nets used as a clock by some flip-flop, deduplicated, in order of
    /// first use.
    pub fn clock_nets(&self) -> Vec<NetId> {
        let mut clocks = Vec::new();
        for cell in &self.cells {
            if let Some(clk) = cell.clock_net() {
                if !clocks.contains(&clk) {
                    clocks.push(clk);
                }
            }
        }
        clocks
    }

    /// The single clock net of a classic synchronous netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ClockError`] if the netlist has no flip-flops
    /// or uses more than one clock net.
    pub fn single_clock(&self) -> Result<NetId, NetlistError> {
        let clocks = self.clock_nets();
        match clocks.len() {
            0 => Err(NetlistError::ClockError(
                "netlist has no flip-flop clock".into(),
            )),
            1 => Ok(clocks[0]),
            n => Err(NetlistError::ClockError(format!(
                "netlist uses {n} distinct clock nets"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks structural well-formedness.
    ///
    /// Verifies that every net has at most one driver, every net read by a
    /// cell or primary output is driven by a cell or primary input, and that
    /// the combinational core is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        // Multiple drivers: primary inputs count as drivers too.
        let mut drivers = vec![0usize; self.nets.len()];
        for &input in &self.inputs {
            drivers[input.index()] += 1;
        }
        for cell in &self.cells {
            drivers[cell.output.index()] += 1;
        }
        for (i, &count) in drivers.iter().enumerate() {
            if count > 1 {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[i].name.to_string(),
                });
            }
        }
        // Undriven nets that are actually read.
        let mut read = vec![false; self.nets.len()];
        for cell in &self.cells {
            for &input in &cell.inputs {
                read[input.index()] = true;
            }
        }
        for &out in &self.outputs {
            read[out.index()] = true;
        }
        for (i, (&r, &d)) in read.iter().zip(drivers.iter()).enumerate() {
            if r && d == 0 {
                return Err(NetlistError::UndrivenNet {
                    net: self.nets[i].name.to_string(),
                });
            }
        }
        // Combinational cycles.
        if let Some(cycle) = crate::analysis::find_combinational_cycle(self) {
            return Err(NetlistError::CombinationalCycle {
                cells: cycle
                    .into_iter()
                    .map(|id| self.cell(id).name.to_string())
                    .collect(),
            });
        }
        Ok(())
    }

    /// A stable 64-bit structural hash of the netlist.
    ///
    /// Covers everything the desynchronization flow reads: the module name,
    /// every net name (in id order), the primary input/output lists and
    /// every cell (name, kind, pin connections, in id order). Two netlists
    /// built by the same sequence of builder calls therefore hash equal,
    /// while any structural difference — a renamed instance, a rewired pin,
    /// a different gate kind — changes the hash with overwhelming
    /// probability.
    ///
    /// Names are interned [`Symbol`]s whose raw `u32` ids are process-local
    /// (they depend on interning order), so the hash never mixes an id.
    /// Instead each name contributes its [`Symbol::content_hash`] — a
    /// stable FNV-1a digest of the string, computed once at interning time —
    /// which keeps this a *content* address (identical netlists hash equal
    /// in any process, under any interning order) while making the per-name
    /// cost O(1) instead of O(string length) on million-cell designs.
    ///
    /// The outer hash is FNV-1a with fixed constants, so it is stable
    /// across processes, platforms and compiler versions — suitable as a
    /// content-address for cross-process artifact caches. It is **not** a
    /// collision-proof identity: callers that must never confuse two
    /// distinct netlists (artifact caches like `desync-core`'s
    /// `DesyncEngine`) should confirm a hash match with a full equality
    /// check.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.name.content_hash());
        h.write_usize(self.nets.len());
        for net in &self.nets {
            h.write_u64(net.name.content_hash());
        }
        h.write_usize(self.inputs.len());
        for &input in &self.inputs {
            h.write_u32(input.0);
        }
        h.write_usize(self.outputs.len());
        for &output in &self.outputs {
            h.write_u32(output.0);
        }
        h.write_usize(self.cells.len());
        for cell in &self.cells {
            h.write_u64(cell.name.content_hash());
            h.write_str(cell.kind.canonical_name());
            h.write_usize(cell.inputs.len());
            for &input in &cell.inputs {
                h.write_u32(input.0);
            }
            h.write_u32(cell.output.0);
        }
        h.finish()
    }

    /// Restores the name→id indices after deserialization.
    ///
    /// `serde` skips the lookup maps; call this after deserializing a
    /// netlist before using [`Netlist::find_net`] / [`Netlist::find_cell`].
    /// The duplicate-suffix counters are also reset; they re-warm lazily on
    /// the next colliding [`Netlist::add_net`].
    pub fn rebuild_index(&mut self) {
        self.net_index = net_index_of(&self.nets);
        self.cell_index = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name, CellId(i as u32)))
            .collect();
        self.net_suffix.clear();
        self.input_set = self.inputs.iter().copied().collect();
        self.output_set = self.outputs.iter().copied().collect();
    }

    /// A short multi-line summary of the netlist composition.
    pub fn summary(&self) -> NetlistSummary {
        NetlistSummary {
            name: self.name.to_string(),
            nets: self.num_nets(),
            cells: self.num_cells(),
            flip_flops: self.num_flip_flops(),
            latches: self.num_latches(),
            combinational: self.num_combinational(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
        }
    }
}

/// The name → id index of a net list.
fn net_index_of(nets: &[Net]) -> FxHashMap<Symbol, NetId> {
    nets.iter()
        .enumerate()
        .map(|(i, n)| (n.name, NetId(i as u32)))
        .collect()
}

/// Appends `net` to a port list unless `set`, the list's members, has it.
/// A set left empty by deserialization is refilled first.
fn mark_port(list: &mut Vec<NetId>, set: &mut FxHashSet<NetId>, net: NetId) {
    if set.len() != list.len() {
        *set = list.iter().copied().collect();
    }
    if set.insert(net) {
        list.push(net);
    }
}

/// FNV-1a with the standard 64-bit offset basis and prime. Deliberately not
/// `std::hash::Hasher`-based: the result must be identical across processes
/// and Rust versions, making it suitable for content-addressed cache keys
/// (see [`Netlist::structural_hash`]; `desync-sim` uses the same primitive
/// for `VectorSource::content_digest`). All multi-byte writes are
/// little-endian; keep the two call sites on this single implementation so
/// the stability guarantee cannot drift.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Creates a hasher at the FNV-1a 64-bit offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Mixes a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Mixes a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mixes a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mixes a `usize`, widened to 64 bits so 32- and 64-bit platforms
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_bytes(&(v as u64).to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Aggregate composition counters for a netlist, see [`Netlist::summary`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistSummary {
    /// Module name.
    pub name: String,
    /// Number of nets.
    pub nets: usize,
    /// Number of cell instances.
    pub cells: usize,
    /// Number of D flip-flops.
    pub flip_flops: usize,
    /// Number of level-sensitive latches.
    pub latches: usize,
    /// Number of combinational cells.
    pub combinational: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
}

impl fmt::Display for NetlistSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module {}", self.name)?;
        writeln!(f, "  nets:          {}", self.nets)?;
        writeln!(f, "  cells:         {}", self.cells)?;
        writeln!(f, "  flip-flops:    {}", self.flip_flops)?;
        writeln!(f, "  latches:       {}", self.latches)?;
        writeln!(f, "  combinational: {}", self.combinational)?;
        writeln!(f, "  inputs:        {}", self.inputs)?;
        write!(f, "  outputs:       {}", self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_pipe() -> Netlist {
        let mut n = Netlist::new("pipe2");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let q1 = n.add_net("q1");
        let inv1 = n.add_net("inv1");
        let q2 = n.add_output("q2");
        n.add_dff("r1", a, clk, q1).unwrap();
        n.add_gate("g1", CellKind::Not, &[q1], inv1).unwrap();
        n.add_dff("r2", inv1, clk, q2).unwrap();
        n
    }

    #[test]
    fn build_and_count() {
        let n = two_stage_pipe();
        assert_eq!(n.num_cells(), 3);
        assert_eq!(n.num_flip_flops(), 2);
        assert_eq!(n.num_latches(), 0);
        assert_eq!(n.num_combinational(), 1);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn duplicate_cell_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        let z = n.add_net("z");
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        let err = n.add_gate("g", CellKind::Not, &[a], z).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateCell("g".into()));
    }

    #[test]
    fn duplicate_net_gets_suffix() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let a2 = n.add_net("a");
        assert_ne!(a, a2);
        assert_eq!(n.net(a2).name, "a_1");
        assert!(n.try_add_net("a").is_err());
    }

    #[test]
    fn arity_checked() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_net("y");
        let err = n.add_gate("g", CellKind::Mux2, &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn invalid_net_rejected() {
        let mut n = Netlist::new("t");
        let y = n.add_net("y");
        let err = n.add_gate("g", CellKind::Not, &[NetId(42)], y).unwrap_err();
        assert_eq!(err, NetlistError::InvalidNetId(NetId(42)));
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_net("y");
        n.add_gate("g1", CellKind::Not, &[a], y).unwrap();
        n.add_gate("g2", CellKind::Not, &[b], y).unwrap();
        n.mark_output(y);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("t");
        let floating = n.add_net("floating");
        let y = n.add_output("y");
        n.add_gate("g", CellKind::Not, &[floating], y).unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate("g1", CellKind::And, &[a, y], x).unwrap();
        n.add_gate("g2", CellKind::Buf, &[x], y).unwrap();
        n.mark_output(y);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn sequential_loop_is_fine() {
        // A DFF in the loop breaks the combinational cycle.
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let q = n.add_net("q");
        let d = n.add_net("d");
        n.add_gate("inv", CellKind::Not, &[q], d).unwrap();
        n.add_dff("r", d, clk, q).unwrap();
        n.mark_output(q);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn clock_extraction() {
        let n = two_stage_pipe();
        let clk = n.single_clock().unwrap();
        assert_eq!(n.net(clk).name, "clk");
        assert_eq!(n.clock_nets(), vec![clk]);

        let empty = Netlist::new("empty");
        assert!(empty.single_clock().is_err());
    }

    #[test]
    fn driver_and_reader_maps() {
        let n = two_stage_pipe();
        let q1 = n.find_net("q1").unwrap();
        let drivers = n.driver_map();
        let r1 = n.find_cell("r1").unwrap();
        assert_eq!(drivers[q1.index()], Some(r1));
        assert_eq!(n.driver(q1), Some(r1));
        let readers = n.reader_map();
        let g1 = n.find_cell("g1").unwrap();
        assert_eq!(readers[q1.index()], vec![g1]);
        let fanout = n.fanout_map();
        assert_eq!(fanout[q1.index()], 1);
    }

    #[test]
    fn summary_display() {
        let n = two_stage_pipe();
        let s = n.summary();
        assert_eq!(s.flip_flops, 2);
        let text = s.to_string();
        assert!(text.contains("pipe2"));
        assert!(text.contains("flip-flops"));
    }

    #[test]
    fn rebuild_index_after_clone_of_fields() {
        let mut n = two_stage_pipe();
        n.rebuild_index();
        assert!(n.find_net("q1").is_some());
        assert!(n.find_cell("r2").is_some());
    }

    #[test]
    fn structural_hash_is_stable_and_content_addressed() {
        // Identical construction sequences hash identically (and clones do).
        let a = two_stage_pipe();
        let b = two_stage_pipe();
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.structural_hash(), a.clone().structural_hash());

        // Every structural perturbation moves the hash.
        let base = a.structural_hash();
        let mut renamed = two_stage_pipe();
        renamed.set_name("other");
        assert_ne!(renamed.structural_hash(), base);

        let mut extra_net = two_stage_pipe();
        extra_net.add_net("spare");
        assert_ne!(extra_net.structural_hash(), base);

        let mut extra_output = two_stage_pipe();
        let q1 = extra_output.find_net("q1").unwrap();
        extra_output.mark_output(q1);
        assert_ne!(extra_output.structural_hash(), base);

        // Different gate kind, same connectivity.
        let mut n1 = Netlist::new("t");
        let x = n1.add_input("a");
        let y1 = n1.add_output("y");
        n1.add_gate("g", CellKind::Not, &[x], y1).unwrap();
        let mut n2 = Netlist::new("t");
        let x2 = n2.add_input("a");
        let y2 = n2.add_output("y");
        n2.add_gate("g", CellKind::Buf, &[x2], y2).unwrap();
        assert_ne!(n1.structural_hash(), n2.structural_hash());

        // Same cells, different pin wiring.
        let mut w1 = Netlist::new("t");
        let a1 = w1.add_input("a");
        let b1 = w1.add_input("b");
        let o1 = w1.add_output("y");
        w1.add_gate("g", CellKind::And, &[a1, b1], o1).unwrap();
        let mut w2 = Netlist::new("t");
        let a2 = w2.add_input("a");
        let b2 = w2.add_input("b");
        let o2 = w2.add_output("y");
        w2.add_gate("g", CellKind::And, &[b2, a2], o2).unwrap();
        assert_ne!(w1.structural_hash(), w2.structural_hash());
    }

    #[test]
    fn structural_hash_resists_string_boundary_shifts() {
        // Net-name boundaries are length-prefixed: ("ab","c") != ("a","bc").
        let mut n1 = Netlist::new("t");
        n1.add_net("ab");
        n1.add_net("c");
        let mut n2 = Netlist::new("t");
        n2.add_net("a");
        n2.add_net("bc");
        assert_ne!(n1.structural_hash(), n2.structural_hash());
    }

    #[test]
    fn marking_a_port_twice_is_a_no_op() {
        let mut added = Netlist::new("t");
        let x = added.add_input("x");
        let y = added.add_output("y");
        let mut marked = Netlist::new("t");
        let x2 = marked.add_net("x");
        let y2 = marked.add_net("y");
        for _ in 0..2 {
            marked.mark_input(x2);
            marked.mark_output(y2);
        }
        assert_eq!(marked.inputs(), &[x]);
        assert_eq!(marked.outputs(), &[y]);
        assert_eq!(marked, added);
        assert_eq!(marked.structural_hash(), added.structural_hash());
    }

    /// A netlist whose output net is named by `add_net`'s suffixing when
    /// `output` is `"x"` (a taken name, so the net becomes `x_1`).
    fn suffixed(output: &str) -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("x");
        let y = n.add_output(output);
        n.add_gate("g", CellKind::Not, &[a], y).unwrap();
        n
    }

    /// Equality covers what the netlist is, not how its names were found:
    /// `add_net`'s suffix cache and the lookup indexes stay out of it.
    #[test]
    fn equality_ignores_the_suffix_cache() {
        let (found, spelled) = (suffixed("x"), suffixed("x_1"));
        assert_eq!(found.net(NetId(1)).name, "x_1");
        assert_eq!(found.structural_hash(), spelled.structural_hash());
        assert_eq!(found, spelled);
    }

    #[test]
    fn edif_roundtrip_of_a_suffixed_name_is_equal() {
        let found = suffixed("x");
        let back = crate::edif::from_edif(&crate::edif::to_edif(&found)).unwrap();
        assert_eq!(back.structural_hash(), found.structural_hash());
        assert_eq!(back, found);
    }

    #[test]
    fn add_const_and_c_element() {
        let mut n = Netlist::new("t");
        let one = n.add_net("one");
        n.add_const("tie1", true, one).unwrap();
        let a = n.add_input("a");
        let c = n.add_net("c");
        n.add_c_element("c0", &[one, a], c).unwrap();
        n.mark_output(c);
        assert!(n.validate().is_ok());
        assert_eq!(n.sequential_cells().count(), 1);
    }
}
