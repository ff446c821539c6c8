//! Cell kinds, cell instances and pin roles.

use crate::intern::Symbol;
use crate::netlist::NetId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a cell instance inside a [`Netlist`](crate::Netlist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl CellId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The functional kind of a cell.
///
/// Combinational kinds accept a variable number of inputs (where that makes
/// sense); sequential kinds have a fixed pin layout documented on each
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Constant logic 0 driver (no inputs).
    Const0,
    /// Constant logic 1 driver (no inputs).
    Const1,
    /// Non-inverting buffer (1 input).
    Buf,
    /// A buffer used as an element of a matched-delay line (1 input).
    ///
    /// Functionally identical to [`CellKind::Buf`] but kept distinct so the
    /// area/power accounting can report matched-delay overhead separately.
    Delay,
    /// Inverter (1 input).
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (parity).
    Xor,
    /// N-input XNOR.
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output is `a` when
    /// `sel = 0` and `b` when `sel = 1`.
    Mux2,
    /// AOI22 (and-or-invert) gate; inputs `[a, b, c, d]`, output
    /// `!((a & b) | (c & d))`.
    AndOrInv,
    /// Rising-edge D flip-flop; inputs `[d, clk]`, output `q`.
    Dff,
    /// Level-sensitive latch transparent when its enable is **low**
    /// (a *master* / even latch in the desynchronization model);
    /// inputs `[d, en]`, output `q`.
    LatchLow,
    /// Level-sensitive latch transparent when its enable is **high**
    /// (a *slave* / odd latch); inputs `[d, en]`, output `q`.
    LatchHigh,
    /// Muller C-element; output goes to the common value when all inputs
    /// agree and holds otherwise. Used by handshake controllers.
    CElement,
}

impl CellKind {
    /// Whether the cell is sequential (holds state between evaluations).
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh | CellKind::CElement
        )
    }

    /// Whether the cell is a level-sensitive latch.
    pub fn is_latch(self) -> bool {
        matches!(self, CellKind::LatchLow | CellKind::LatchHigh)
    }

    /// Whether the cell is purely combinational.
    pub fn is_combinational(self) -> bool {
        !self.is_sequential()
    }

    /// The number of inputs this kind requires, or `None` when it accepts
    /// any number of inputs (N-ary gates).
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            CellKind::Const0 | CellKind::Const1 => Some(0),
            CellKind::Buf | CellKind::Delay | CellKind::Not => Some(1),
            CellKind::Mux2 => Some(3),
            CellKind::AndOrInv => Some(4),
            CellKind::Dff => Some(2),
            CellKind::LatchLow | CellKind::LatchHigh => Some(2),
            CellKind::And
            | CellKind::Nand
            | CellKind::Or
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor
            | CellKind::CElement => None,
        }
    }

    /// Library cell name used by the default library and the Verilog writer.
    pub fn canonical_name(self) -> &'static str {
        match self {
            CellKind::Const0 => "TIE0",
            CellKind::Const1 => "TIE1",
            CellKind::Buf => "BUF",
            CellKind::Delay => "DLY",
            CellKind::Not => "INV",
            CellKind::And => "AND",
            CellKind::Nand => "NAND",
            CellKind::Or => "OR",
            CellKind::Nor => "NOR",
            CellKind::Xor => "XOR",
            CellKind::Xnor => "XNOR",
            CellKind::Mux2 => "MUX2",
            CellKind::AndOrInv => "AOI22",
            CellKind::Dff => "DFF",
            CellKind::LatchLow => "LATN",
            CellKind::LatchHigh => "LATP",
            CellKind::CElement => "CELEM",
        }
    }

    /// Parses a canonical library cell name back into a kind
    /// (case-insensitive, without allocating).
    pub fn from_canonical_name(name: &str) -> Option<Self> {
        // Exact matches first (TIE0/TIE1 end in a digit that is not an arity
        // suffix), then arity-suffixed names (NAND2, AND3, ...).
        const EXACT: [(&str, CellKind); 4] = [
            ("TIE0", CellKind::Const0),
            ("TIE1", CellKind::Const1),
            ("MUX2", CellKind::Mux2),
            ("AOI22", CellKind::AndOrInv),
        ];
        const BASES: [(&str, CellKind); 17] = [
            ("BUF", CellKind::Buf),
            ("DLY", CellKind::Delay),
            ("INV", CellKind::Not),
            ("NOT", CellKind::Not),
            ("AND", CellKind::And),
            ("NAND", CellKind::Nand),
            ("OR", CellKind::Or),
            ("NOR", CellKind::Nor),
            ("XOR", CellKind::Xor),
            ("XNOR", CellKind::Xnor),
            ("MUX", CellKind::Mux2),
            ("AOI", CellKind::AndOrInv),
            ("DFF", CellKind::Dff),
            ("LATN", CellKind::LatchLow),
            ("LATP", CellKind::LatchHigh),
            ("CELEM", CellKind::CElement),
            ("C", CellKind::CElement),
        ];
        let lookup = |table: &[(&str, CellKind)], key: &str| {
            table
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(key))
                .map(|&(_, kind)| kind)
        };
        lookup(&EXACT, name)
            .or_else(|| lookup(&BASES, name.trim_end_matches(|c: char| c.is_ascii_digit())))
    }

    /// Canonical input pin names for an instance of this kind with `n`
    /// inputs, as a static slice — no allocation per cell.
    ///
    /// Fixed-layout kinds have their documented pin names (`D`/`CK` for
    /// flip-flops, `D`/`EN` for latches, `S`/`A`/`B` for the mux); N-ary
    /// gates use alphabetical pins `A`, `B`, ... (wrapping to `A1`, `B1`,
    /// ... past 26). Both netlist readers (structural Verilog and EDIF) and
    /// the writers route through this single table, so pin naming cannot
    /// drift between frontends.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the static table (52 pins) — far beyond any
    /// library cell this toolkit models.
    pub fn input_pin_names(self, n: usize) -> &'static [&'static str] {
        /// `A`..`Z`, then `A1`..`Z1` — matches the historical generated
        /// names, now as one static table.
        const ALPHA: [&str; 52] = [
            "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N", "O", "P", "Q",
            "R", "S", "T", "U", "V", "W", "X", "Y", "Z", "A1", "B1", "C1", "D1", "E1", "F1", "G1",
            "H1", "I1", "J1", "K1", "L1", "M1", "N1", "O1", "P1", "Q1", "R1", "S1", "T1", "U1",
            "V1", "W1", "X1", "Y1", "Z1",
        ];
        match self {
            CellKind::Dff => &["D", "CK"],
            CellKind::LatchLow | CellKind::LatchHigh => &["D", "EN"],
            CellKind::Mux2 => &["S", "A", "B"],
            _ => {
                assert!(n <= ALPHA.len(), "unsupported arity {n} for {self}");
                &ALPHA[..n]
            }
        }
    }

    /// Canonical output pin name: `Q` for state-holding cells, `Y`
    /// otherwise.
    pub fn output_pin_name(self) -> &'static str {
        match self {
            CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh => "Q",
            _ => "Y",
        }
    }

    /// Orders named pin connections into this kind's canonical input layout
    /// and extracts the output net. Shared by the structural-Verilog reader
    /// and the EDIF flattener so both accept the same pin vocabulary.
    ///
    /// Pin matching is case-insensitive and accepts the common aliases
    /// `CLK` (for `CK`) and `E` (for `EN`). N-ary gates take their inputs
    /// in alphabetical pin order: for them `conns` is sorted in place (a
    /// stable sort, so a repeated pin keeps its order), which spares an
    /// allocation per cell.
    ///
    /// # Errors
    ///
    /// Returns the name of the first missing required pin.
    pub fn order_connections(
        self,
        conns: &mut [(&str, NetId)],
    ) -> Result<(Vec<NetId>, NetId), &'static str> {
        let find = |conns: &[(&str, NetId)], names: &[&str]| -> Option<NetId> {
            conns
                .iter()
                .find(|(pin, _)| names.iter().any(|n| pin.eq_ignore_ascii_case(n)))
                .map(|&(_, net)| net)
        };
        let out_pin = self.output_pin_name();
        let output = find(conns, &[out_pin]).ok_or(out_pin)?;
        let find = |names: &[&str]| find(conns, names);
        let inputs = match self {
            CellKind::Dff => vec![find(&["D"]).ok_or("D")?, find(&["CK", "CLK"]).ok_or("CK")?],
            CellKind::LatchLow | CellKind::LatchHigh => {
                vec![find(&["D"]).ok_or("D")?, find(&["EN", "E"]).ok_or("EN")?]
            }
            CellKind::Mux2 => vec![
                find(&["S"]).ok_or("S")?,
                find(&["A"]).ok_or("A")?,
                find(&["B"]).ok_or("B")?,
            ],
            _ => {
                conns.sort_by(|a, b| a.0.cmp(b.0));
                conns
                    .iter()
                    .filter(|(p, _)| !p.eq_ignore_ascii_case(out_pin))
                    .map(|&(_, net)| net)
                    .collect()
            }
        };
        Ok((inputs, output))
    }

    /// All cell kinds, useful for building libraries and property tests.
    pub fn all() -> &'static [CellKind] {
        &[
            CellKind::Const0,
            CellKind::Const1,
            CellKind::Buf,
            CellKind::Delay,
            CellKind::Not,
            CellKind::And,
            CellKind::Nand,
            CellKind::Or,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Mux2,
            CellKind::AndOrInv,
            CellKind::Dff,
            CellKind::LatchLow,
            CellKind::LatchHigh,
            CellKind::CElement,
        ]
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_name())
    }
}

/// The role a pin plays on a cell, used by analyses that need to distinguish
/// data pins from clock/enable pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinRole {
    /// Ordinary data input.
    Data,
    /// Clock input of a flip-flop.
    Clock,
    /// Enable input of a latch.
    Enable,
    /// Output pin.
    Output,
}

/// A cell instance: a named occurrence of a [`CellKind`] wired to nets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name (unique within the netlist), interned in the global
    /// [`Symbol`] table.
    pub name: Symbol,
    /// Functional kind.
    pub kind: CellKind,
    /// Input nets, in pin order (see [`CellKind`] for the layout).
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

impl Cell {
    /// The net connected to the clock pin, for flip-flops.
    pub fn clock_net(&self) -> Option<NetId> {
        match self.kind {
            CellKind::Dff => self.inputs.get(1).copied(),
            _ => None,
        }
    }

    /// The net connected to the enable pin, for latches.
    pub fn enable_net(&self) -> Option<NetId> {
        match self.kind {
            CellKind::LatchLow | CellKind::LatchHigh => self.inputs.get(1).copied(),
            _ => None,
        }
    }

    /// The net connected to the data pin, for sequential cells.
    pub fn data_net(&self) -> Option<NetId> {
        match self.kind {
            CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh => {
                self.inputs.first().copied()
            }
            _ => None,
        }
    }

    /// Role of input pin `idx` on this cell.
    pub fn pin_role(&self, idx: usize) -> PinRole {
        match (self.kind, idx) {
            (CellKind::Dff, 1) => PinRole::Clock,
            (CellKind::LatchLow | CellKind::LatchHigh, 1) => PinRole::Enable,
            _ => PinRole::Data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_of_fixed_cells() {
        assert_eq!(CellKind::Not.fixed_arity(), Some(1));
        assert_eq!(CellKind::Mux2.fixed_arity(), Some(3));
        assert_eq!(CellKind::Dff.fixed_arity(), Some(2));
        assert_eq!(CellKind::And.fixed_arity(), None);
    }

    #[test]
    fn sequential_classification() {
        assert!(CellKind::Dff.is_sequential());
        assert!(CellKind::LatchLow.is_sequential());
        assert!(CellKind::LatchHigh.is_latch());
        assert!(CellKind::CElement.is_sequential());
        assert!(CellKind::Nand.is_combinational());
        assert!(!CellKind::Dff.is_combinational());
    }

    #[test]
    fn canonical_names_roundtrip() {
        for &kind in CellKind::all() {
            let name = kind.canonical_name();
            assert_eq!(CellKind::from_canonical_name(name), Some(kind), "{name}");
        }
        // Arity-suffixed names are accepted too.
        assert_eq!(CellKind::from_canonical_name("NAND2"), Some(CellKind::Nand));
        assert_eq!(CellKind::from_canonical_name("AND4"), Some(CellKind::And));
        assert_eq!(CellKind::from_canonical_name("bogus"), None);
    }

    #[test]
    fn pin_roles() {
        let c = Cell {
            name: "r0".into(),
            kind: CellKind::Dff,
            inputs: vec![NetId(0), NetId(1)],
            output: NetId(2),
        };
        assert_eq!(c.pin_role(0), PinRole::Data);
        assert_eq!(c.pin_role(1), PinRole::Clock);
        assert_eq!(c.clock_net(), Some(NetId(1)));
        assert_eq!(c.data_net(), Some(NetId(0)));
        assert_eq!(c.enable_net(), None);

        let l = Cell {
            name: "l0".into(),
            kind: CellKind::LatchHigh,
            inputs: vec![NetId(3), NetId(4)],
            output: NetId(5),
        };
        assert_eq!(l.pin_role(1), PinRole::Enable);
        assert_eq!(l.enable_net(), Some(NetId(4)));
    }
}
