//! Gate-level netlist intermediate representation for the desynchronization toolkit.
//!
//! This crate provides the substrate every other `desync-*` crate builds on.
//! It is organized in two layers:
//!
//! **Names.** Every net, cell and module name is an interned [`Symbol`] — a
//! `Copy` handle into a global, process-wide string table ([`intern`]).
//! Equality and hashing are O(1) on a `u32`, so the name-keyed indexes on
//! the million-cell hot paths (`net_index`, `cell_index`, duplicate-name
//! suffix counters) never touch string data; strings materialize only at
//! display/export time via [`Symbol::as_str`]. Because raw symbol ids are
//! interning-order dependent, anything content-addressed — notably
//! [`Netlist::structural_hash`] — hashes each symbol's stable per-string
//! digest ([`Symbol::content_hash`]) instead of its id.
//!
//! **Tables.** A table an analysis or pass builds for one call is a `Vec`
//! indexed by the dense [`CellId`] / [`NetId`] the netlist assigns (lists
//! per net or cell as one flat [`analysis::CellTable`]), so no id is
//! hashed. Maps whose keys the program assigns — symbols, ids and pairs of
//! them, like the name indexes above — use the fixed-seed [`FxHasher`]
//! ([`fxhash`]). The interner's own string map keeps std's randomized
//! hasher: its keys are names from outside input.
//!
//! **Structure.**
//!
//! * [`Netlist`] — a flat, gate-level netlist with primary ports, nets and
//!   cell instances (combinational gates, D flip-flops, level-sensitive
//!   latches, and the Muller C-elements used by handshake controllers).
//! * [`CellKind`] and [`Value`] — the logic model (two-valued plus unknown
//!   `X`) and the evaluation semantics of every supported cell, plus the
//!   canonical pin tables ([`CellKind::input_pin_names`],
//!   [`CellKind::order_connections`]) shared by every frontend.
//! * [`CellLibrary`] — a technology model assigning delay, area, input
//!   capacitance and switching energy to each cell, used by the timing,
//!   power and simulation crates.
//! * [`analysis`] — structural analyses: topological ordering of the
//!   combinational core, combinational-cycle detection, fan-out maps,
//!   register-to-register stage extraction.
//!
//! **Frontends.** Two file formats feed the flow; both resolve instance
//! pins through the same [`CellKind`] tables, and both have writers whose
//! output round-trips to full [`Netlist`] equality:
//!
//! * [`edif`] — an EDIF 2 0 0 reader (single-pass streaming reader from
//!   text straight into a positioned typed AST → worklist-driven hierarchy
//!   flattener with `/`-joined names) and writer. This is how real
//!   synthesis output enters the flow.
//! * [`verilog`] — a reader and writer for a small structural-Verilog
//!   subset, so netlists can be exchanged with external tools.
//!
//! # Example
//!
//! Build a tiny two-bit register feeding an XOR and inspect it:
//!
//! ```
//! use desync_netlist::{Netlist, CellKind};
//!
//! # fn main() -> Result<(), desync_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let clk = n.add_input("clk");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let qa = n.add_net("qa");
//! let qb = n.add_net("qb");
//! let y = n.add_net("y");
//! n.add_dff("ra", a, clk, qa)?;
//! n.add_dff("rb", b, clk, qb)?;
//! n.add_gate("x0", CellKind::Xor, &[qa, qb], y)?;
//! n.mark_output(y);
//! n.validate()?;
//! assert_eq!(n.num_flip_flops(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cell;
pub mod edif;
pub mod error;
pub mod fxhash;
pub mod intern;
pub mod library;
pub mod netlist;
pub mod value;
pub mod verilog;

pub use cell::{Cell, CellId, CellKind, PinRole};
pub use edif::{from_edif, to_edif, EdifError};
pub use error::NetlistError;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::Symbol;
pub use library::{CellLibrary, CellTemplate, DelaySpec};
pub use netlist::{Fnv1a, Net, NetId, Netlist, PortDirection};
pub use value::Value;
