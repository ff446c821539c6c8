//! Static timing analysis and matched-delay generation.
//!
//! This crate computes the timing quantities the desynchronization flow
//! needs:
//!
//! * longest combinational path delays (arrival times) through a gate-level
//!   netlist, with a linear wire-load model ([`Sta`]), over the whole
//!   netlist or only a source set's forward cone
//!   ([`Sta::cone_arrival_from`]),
//! * the synchronous clock period (worst register-to-register path plus
//!   clock-to-Q and setup, [`Sta::clock_period`]),
//! * per-register *stage delays*, i.e. the worst-case delay of the
//!   combinational cloud in front of every register
//!   ([`Sta::stage_delays`]), and
//! * matched-delay sizing: the number of delay cells whose chain exceeds a
//!   combinational delay by a safety margin ([`MatchedDelay`]), which is the
//!   "generation of matched delays for combinational logic" step of the
//!   paper.
//!
//! # Example
//!
//! ```
//! use desync_netlist::{Netlist, CellKind, CellLibrary};
//! use desync_sta::{Sta, TimingConfig};
//!
//! # fn main() -> Result<(), desync_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let clk = n.add_input("clk");
//! let a = n.add_input("a");
//! let q = n.add_net("q");
//! let inv = n.add_net("inv");
//! let y = n.add_output("y");
//! n.add_dff("r0", a, clk, q)?;
//! n.add_gate("g0", CellKind::Not, &[q], inv)?;
//! n.add_dff("r1", inv, clk, y)?;
//! let lib = CellLibrary::generic_90nm();
//! let sta = Sta::new(&n, &lib, TimingConfig::default());
//! assert!(sta.clock_period() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matched;
pub mod sta;

pub use matched::MatchedDelay;
pub use sta::{ConeArrivals, CriticalPath, Sta, StageDelay, TimingConfig};
