//! Event-driven gate-level simulation for synchronous and desynchronized
//! netlists.
//!
//! The simulator plays the role of the gate-level simulation with
//! back-annotated delays used in the paper's evaluation: it executes a
//! [`Netlist`](desync_netlist::Netlist) with per-cell propagation delays,
//! counts switching activity (the input to the dynamic-power model in
//! `desync-power`) and records the stream of values captured by every
//! register (the input to the flow-equivalence check in `desync-mg`).
//!
//! Two harnesses are provided on top of the raw engine:
//!
//! * [`SyncBench`] — drives a global clock and per-cycle input vectors
//!   into a flip-flop based netlist.
//! * [`AsyncBench`] — drives a latch-based (desynchronized) netlist
//!   whose latch-enable waveforms come from the timed marked-graph model of
//!   the control network.
//!
//! # One kernel at two lane widths
//!
//! The crate has one simulation kernel, [`Simulator`], and one sync and one
//! async drive script ([`SyncBench`], [`AsyncBench`]), all generic over the
//! sealed [`Lanes`] trait: what one net carries, how its lane masks,
//! `select` and cell evaluators work, and which stimulus and finished-run
//! types go with it. The trait has two impls, and the compiler
//! monomorphizes the kernel for each:
//!
//! * **[`Value`]** — one 4-state value per net: the scalar sweep. At this
//!   width the kernel and testbenches take a [`VectorSource`] and finish
//!   into a [`SimRun`].
//! * **[`PackedValue`]** — 64 independent stimulus lanes per net, encoded
//!   as two `u64` bit-planes (`lo` = definitely-One, `hi` = possibly-One,
//!   so `Zero = 00`, `One = 11`, `X = 01` per lane), every [`CellKind`]
//!   evaluated with branch-free word-wide logic: the packed campaign. At
//!   this width the kernel and testbenches take a [`PackedVectorSource`]
//!   (up to 64 interleaved [`VectorSource`] lanes with a combined content
//!   digest for the sync-reference-run cache) and finish into a
//!   [`PackedSimRun`].
//!
//! Under matched delays the event *schedule* is stimulus-independent, and
//! the event queue, the CSR topology walk and the scheduling rules are
//! one piece of code, so each lane of a packed run is bit-identical to a
//! scalar run with that lane's stimulus; only the payloads widen. A
//! finished packed run stays packed: one packed capture stream per register
//! with per-capture lane masks, bit-sliced per-net switching counters (a
//! lane's committed events follow from them), and the raw packed waveform
//! records. Equivalence campaigns compare lanes in packed space — one
//! [`Lanes::diff_mask`] per capture pair covers all 64 lanes — and
//! [`PackedSimRun::lane`] builds a lane's scalar [`SimRun`] only when a
//! caller asks for it. So a 64-seed campaign point costs one packed
//! co-simulation plus word-wide comparisons, not 64 scalar runs.
//!
//! [`Value`]: desync_netlist::Value
//! [`CellKind`]: desync_netlist::CellKind
//!
//! # Kernel design: compiled model + cursor
//!
//! Gate-level co-simulation is the hot path of flow-equivalence
//! verification (every knob sweep ends in two simulations), so the kernel
//! splits what is *shareable* from what is *per-run* and commits events
//! without allocating. A [`CompiledModel`] holds everything derived from
//! the netlist structure and the library; it is a pure function of
//! `(netlist, library, `[`SimConfig`]`)`, compiled once by
//! [`CompiledModel::compile`] and shared behind an `Arc`, and nothing in it
//! depends on the lane width. A [`Simulator`] is a cheap *cursor* over it
//! ([`Simulator::with_lanes`]) that owns only the per-run state, so a
//! verification sweep compiles each datapath once and re-binds per-point
//! enable schedules and stimuli onto the shared model; `desync-core`
//! caches compiled models in its artifact store next to the stage
//! artifacts. The [`engine`] module documents the rest of the kernel:
//! integer time keys, the radix event queue, the CSR topology, the bitset
//! watch list and the bit-sliced lane counters.
//!
//! Both harnesses take either a `(library, config)` pair or a pre-compiled
//! model ([`SyncBench::with_lanes`], [`AsyncBench::with_lanes`]); the two
//! paths are bit-identical by construction, because the cursor seeds
//! constants in netlist cell order either way, so the push order (the
//! tie-breaker among events at equal times) coincides. A testbench's
//! `run` consumes it, so one testbench makes one run.
//!
//! A golden-trace property suite (`desync-core/tests/sim_golden.rs`) pins
//! the scalar width's captures, activity counters and waveforms
//! byte-identical to a straightforward reference implementation across
//! random circuits and all three handshake protocols; a second suite
//! (`desync-core/tests/sim_packed_golden.rs`) pins the packed width's
//! extracted lanes bit-identical to scalar runs the same way, and a third
//! (`desync-core/tests/packed_compare.rs`) pins the packed-space campaign
//! verdicts against per-lane comparison of the extracted runs.
//! [`VectorSource::content_digest`] provides the stimulus half of the
//! content-addressed sync-reference-run cache that `desync-core` layers on
//! top for incremental co-simulation.
//!
//! # Example
//!
//! ```
//! use desync_netlist::{Netlist, CellKind, CellLibrary, Value};
//! use desync_sim::{SimConfig, SyncBench, VectorSource};
//!
//! # fn main() -> Result<(), desync_netlist::NetlistError> {
//! let mut n = Netlist::new("counter_bit");
//! let clk = n.add_input("clk");
//! let q = n.add_net("q");
//! let d = n.add_net("d");
//! n.add_gate("inv", CellKind::Not, &[q], d)?;
//! n.add_dff("r", d, clk, q)?;
//! n.mark_output(q);
//!
//! let lib = CellLibrary::generic_90nm();
//! let tb = SyncBench::<Value>::new(&n, &lib, SimConfig::default())?;
//! let run = tb.run(16, 5_000.0, &VectorSource::constant(vec![]));
//! assert_eq!(run.cycles, 16);
//! // The single register toggles every cycle.
//! let stream = run.flow_trace.stream("r").unwrap();
//! assert!(stream.windows(2).all(|w| w[0] != w[1]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod harness;
pub mod model;
pub mod packed;
pub mod stimulus;
pub mod waveform;

pub use activity::Activity;
pub use engine::{Capture, Lanes, SimConfig, Simulator};
pub use harness::{value_to_word, AsyncBench, EnableSchedule, SimRun, SyncBench};
pub use model::CompiledModel;
pub use packed::{PackedSimRun, PackedStream, PackedValue, MAX_LANES};
pub use stimulus::{PackedVectorSource, VectorSource};
pub use waveform::{Waveform, WaveformSet};
