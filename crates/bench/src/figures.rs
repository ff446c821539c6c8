//! Experiments E2–E5: reproductions of the paper's Figures 1–4.
//!
//! The figures in the paper are qualitative (circuit structures, marked
//! graphs, a timing diagram); their reproductions here are the corresponding
//! *computed artifacts* — conversion statistics, composed marked graphs with
//! their liveness/safeness verdicts, and simulated latch-enable waveforms —
//! printed by the `fig*` binaries and asserted by the test suite.

use desync_core::cluster::Parity;
use desync_core::controller::{initial_tokens, PairEvent, Protocol};
use desync_core::{ClusteringStrategy, DesyncFlow, DesyncOptions};
use desync_mg::compose::{compose, same_structure};
use desync_mg::{MarkedGraph, Stg};
use desync_netlist::{CellKind, CellLibrary, Netlist, Value};
use desync_sim::{AsyncBench, SimConfig, VectorSource};
use serde::{Deserialize, Serialize};
use std::fmt;

// ---------------------------------------------------------------------
// Figure 1 — flip-flop circuit vs. de-synchronized latch circuit
// ---------------------------------------------------------------------

/// The before/after statistics of the Figure 1 transformation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1 {
    /// Flip-flops in the synchronous circuit.
    pub flip_flops: usize,
    /// Latches in the desynchronized circuit.
    pub latches: usize,
    /// Combinational cells (unchanged by the transformation).
    pub combinational_before: usize,
    /// Combinational cells after conversion (must equal the value before).
    pub combinational_after: usize,
    /// Local clock generators replacing the clock tree.
    pub controllers: usize,
    /// Whether the desynchronized circuit is flow equivalent to the original.
    pub flow_equivalent: bool,
}

impl fmt::Display for Figure1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 — synchronous circuit vs. de-synchronized circuit"
        )?;
        writeln!(f, "  flip-flops:             {}", self.flip_flops)?;
        writeln!(
            f,
            "  latches after conversion: {} (2 per flip-flop)",
            self.latches
        )?;
        writeln!(
            f,
            "  combinational cells:    {} -> {} (untouched)",
            self.combinational_before, self.combinational_after
        )?;
        writeln!(f, "  local clock generators: {}", self.controllers)?;
        write!(f, "  flow equivalent:        {}", self.flow_equivalent)
    }
}

/// Runs the Figure 1 experiment on a three-stage flip-flop pipeline.
///
/// # Panics
///
/// Panics if the flow or the co-simulation fails (a bug, not a usage error).
pub fn figure1() -> Figure1 {
    let netlist = desync_circuits::LinearPipelineConfig::balanced(3, 8, 3)
        .generate()
        .expect("pipeline generation");
    let library = CellLibrary::generic_90nm();
    let mut flow =
        DesyncFlow::new(&netlist, &library, DesyncOptions::default()).expect("valid options");
    let stimulus = crate::workloads::bus_stimulus(&netlist, "din", 8, 11);
    flow.set_verification(stimulus, 24);
    let report = flow.verified().expect("co-simulation").clone();
    let design = flow.designed().expect("desynchronization");
    Figure1 {
        flip_flops: netlist.num_flip_flops(),
        latches: design.latch_netlist().num_latches(),
        combinational_before: netlist.num_combinational(),
        combinational_after: design.latch_netlist().num_combinational(),
        controllers: design.controllers().len(),
        flow_equivalent: report.is_equivalent(),
    }
}

// ---------------------------------------------------------------------
// Figure 2 — a non-linear netlist and its de-synchronization model
// ---------------------------------------------------------------------

/// The Figure 2 reproduction: a forking/joining netlist of seven registers
/// (A–G, as in the paper's example) and the marked graph obtained by
/// composing the pairwise patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2 {
    /// The composed control marked graph.
    pub model: MarkedGraph,
    /// Number of latch clusters (one per register A–G).
    pub clusters: usize,
    /// Liveness of the composed model.
    pub live: bool,
    /// Safeness of the composed model.
    pub safe: bool,
    /// STG consistency (rising/falling edges of every enable alternate):
    /// `Some(true/false)` when the bounded exploration finished, `None` when
    /// the reachable state space exceeded the exploration bound.
    pub consistent: Option<bool>,
    /// Cycle time of the model in picoseconds.
    pub cycle_time_ps: f64,
}

impl fmt::Display for Figure2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — netlist with fork/join and its de-synchronization model"
        )?;
        writeln!(f, "  clusters (registers A..G): {}", self.clusters)?;
        writeln!(
            f,
            "  model: {} transitions, {} places",
            self.model.num_transitions(),
            self.model.num_places()
        )?;
        writeln!(f, "  live:        {}", self.live)?;
        writeln!(f, "  safe:        {}", self.safe)?;
        match self.consistent {
            Some(value) => writeln!(f, "  consistent:  {value}")?,
            None => writeln!(
                f,
                "  consistent:  unknown (state space beyond exploration bound)"
            )?,
        }
        write!(f, "  cycle time:  {:.1} ps", self.cycle_time_ps)
    }
}

/// Builds the seven-register example netlist of Figure 2: registers A and B
/// feed C, C forks to D and F, D feeds E, F feeds G (a fork/join structure
/// comparable to the paper's example netlist).
pub fn figure2_netlist() -> Netlist {
    let mut n = Netlist::new("fig2");
    let clk = n.add_input("clk");
    let in_a = n.add_input("in_a");
    let in_b = n.add_input("in_b");
    let qa = n.add_net("qa");
    let qb = n.add_net("qb");
    let qc = n.add_net("qc");
    let qd = n.add_net("qd");
    let qe = n.add_output("qe");
    let qf = n.add_net("qf");
    let qg = n.add_output("qg");
    let w_ab = n.add_net("w_ab");
    let w_cd = n.add_net("w_cd");
    let w_cf = n.add_net("w_cf");
    let w_de = n.add_net("w_de");
    let w_fg = n.add_net("w_fg");
    n.add_dff("A", in_a, clk, qa).unwrap();
    n.add_dff("B", in_b, clk, qb).unwrap();
    n.add_gate("g_join", CellKind::Xor, &[qa, qb], w_ab)
        .unwrap();
    n.add_dff("C", w_ab, clk, qc).unwrap();
    n.add_gate("g_cd", CellKind::Not, &[qc], w_cd).unwrap();
    n.add_gate("g_cf", CellKind::Buf, &[qc], w_cf).unwrap();
    n.add_dff("D", w_cd, clk, qd).unwrap();
    n.add_dff("F", w_cf, clk, qf).unwrap();
    n.add_gate("g_de", CellKind::Not, &[qd], w_de).unwrap();
    n.add_gate("g_fg", CellKind::Not, &[qf], w_fg).unwrap();
    n.add_dff("E", w_de, clk, qe).unwrap();
    n.add_dff("G", w_fg, clk, qg).unwrap();
    n
}

/// Runs the Figure 2 experiment.
///
/// # Panics
///
/// Panics if the flow fails on the example netlist.
pub fn figure2() -> Figure2 {
    let netlist = figure2_netlist();
    let library = CellLibrary::generic_90nm();
    let design = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_clustering(ClusteringStrategy::PerRegister),
    )
    .expect("valid options")
    .design()
    .expect("desynchronization");
    let model = design.control_model();
    let stg = Stg::from_graph(model.graph().clone());
    Figure2 {
        clusters: design.clusters().len(),
        live: model.is_live(),
        safe: model.is_safe(),
        consistent: stg.is_consistent(500_000),
        cycle_time_ps: model.cycle_time_ps(),
        model: model.graph().clone(),
    }
}

// ---------------------------------------------------------------------
// Figure 3 — pipeline de-synchronization timing diagram
// ---------------------------------------------------------------------

/// The Figure 3 reproduction: the latch-enable waveforms of a linear
/// pipeline, rendered as ASCII strips, plus the properties the figure
/// illustrates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure3 {
    /// One `(signal name, ascii strip)` pair per latch enable.
    pub waveforms: Vec<(String, String)>,
    /// Whether adjacent-stage enable pulses were observed to overlap
    /// ("the pulses for the latch control can overlap").
    pub pulses_overlap: bool,
    /// Whether the desynchronized pipeline is flow equivalent to the
    /// synchronous one ("data overwriting can never occur").
    pub no_overwriting: bool,
    /// Cycle time of the marked-graph model, picoseconds.
    pub cycle_time_ps: f64,
    /// Clock period of the synchronous pipeline, picoseconds.
    pub sync_period_ps: f64,
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3 — pipeline de-synchronization ( # = transparent, _ = opaque )"
        )?;
        for (name, strip) in &self.waveforms {
            writeln!(f, "  {name:>8} {strip}")?;
        }
        writeln!(f, "  adjacent pulses overlap: {}", self.pulses_overlap)?;
        writeln!(f, "  no data overwriting:     {}", self.no_overwriting)?;
        write!(
            f,
            "  cycle time: {:.1} ps (synchronous period {:.1} ps)",
            self.cycle_time_ps, self.sync_period_ps
        )
    }
}

/// Builds the four-latch pipeline (registers A–D) of Figure 3.
pub fn figure3_netlist() -> Netlist {
    let mut n = Netlist::new("fig3");
    let clk = n.add_input("clk");
    let din = n.add_input("din");
    let qa = n.add_net("qa");
    let qb = n.add_net("qb");
    let qc = n.add_net("qc");
    let qd = n.add_output("qd");
    let wa = n.add_net("wa");
    let wb = n.add_net("wb");
    let wc = n.add_net("wc");
    n.add_dff("A", din, clk, qa).unwrap();
    n.add_gate("ga", CellKind::Not, &[qa], wa).unwrap();
    n.add_dff("B", wa, clk, qb).unwrap();
    n.add_gate("gb", CellKind::Not, &[qb], wb).unwrap();
    n.add_dff("C", wb, clk, qc).unwrap();
    n.add_gate("gc", CellKind::Not, &[qc], wc).unwrap();
    n.add_dff("D", wc, clk, qd).unwrap();
    n
}

/// Runs the Figure 3 experiment.
///
/// # Panics
///
/// Panics if the flow or the simulation fails.
pub fn figure3() -> Figure3 {
    let netlist = figure3_netlist();
    let library = CellLibrary::generic_90nm();
    let mut flow = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default().with_clustering(ClusteringStrategy::PerRegister),
    )
    .expect("valid options");
    let design = flow.design().expect("desynchronization");

    // Enable waveforms from the gate-level co-simulation.
    let start_offset = design.synchronous_period_ps() + 1_000.0;
    let bundle = design.enable_schedule(10, start_offset);
    let latch_netlist = design.latch_netlist();
    let mut tb = AsyncBench::<Value>::new(latch_netlist, &library, SimConfig::default());
    let enable_names: Vec<String> = design
        .latch_design()
        .cluster_enables
        .iter()
        .flat_map(|(_, m, s)| [m.clone(), s.clone()])
        .collect();
    let refs: Vec<&str> = enable_names.iter().map(String::as_str).collect();
    tb.watch_named(&refs);
    let run = tb.run(bundle.horizon_ps + 2_000.0, 10, &bundle.schedule, &[]);

    let start = start_offset;
    let end = start + 5.0 * design.cycle_time_ps();
    let step = (end - start) / 80.0;
    let waveforms: Vec<(String, String)> = enable_names
        .iter()
        .filter_map(|name| {
            run.waveforms
                .get(name)
                .map(|w| (name.clone(), w.ascii(start, end, step)))
        })
        .collect();

    // Overlap check on the slave enables of adjacent stages.
    let overlap = |a: &str, b: &str| -> bool {
        let (Some(wa), Some(wb)) = (run.waveforms.get(a), run.waveforms.get(b)) else {
            return false;
        };
        let mut t = start;
        while t < end {
            if wa.value_at(t) == Value::One && wb.value_at(t) == Value::One {
                return true;
            }
            t += step / 4.0;
        }
        false
    };
    let pulses_overlap =
        overlap("en_A_s", "en_B_s") || overlap("en_B_s", "en_C_s") || overlap("en_C_s", "en_D_s");

    // "Data overwriting can never occur" == flow equivalence.
    let din = netlist.find_net("din").expect("din exists");
    flow.set_verification(VectorSource::pseudo_random(vec![din], 5), 24);
    let no_overwriting = flow.verified().expect("co-simulation").is_equivalent();

    Figure3 {
        waveforms,
        pulses_overlap,
        no_overwriting,
        cycle_time_ps: design.cycle_time_ps(),
        sync_period_ps: design.synchronous_period_ps(),
    }
}

// ---------------------------------------------------------------------
// Figure 4 — pairwise even/odd synchronization patterns
// ---------------------------------------------------------------------

/// The Figure 4 reproduction: the two pairwise patterns and the proof that
/// their composition yields the pipeline specification of Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4 {
    /// The even→odd pattern (source master, destination slave).
    pub even_to_odd: MarkedGraph,
    /// The odd→even pattern (source slave, destination master).
    pub odd_to_even: MarkedGraph,
    /// Both patterns are live and safe on their own.
    pub patterns_live_and_safe: bool,
    /// The composition of the patterns along a pipeline is live and safe.
    pub composition_live_and_safe: bool,
    /// The composition has the same structure as the pipeline model built
    /// directly by the flow (Figure 3's marked graph).
    pub matches_pipeline_model: bool,
}

impl fmt::Display for Figure4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4 — pairwise synchronization patterns")?;
        writeln!(f, "(a) even -> odd:")?;
        for line in self.even_to_odd.render().lines().skip(1) {
            writeln!(f, "    {line}")?;
        }
        writeln!(f, "(b) odd -> even:")?;
        for line in self.odd_to_even.render().lines().skip(1) {
            writeln!(f, "    {line}")?;
        }
        writeln!(
            f,
            "  patterns live and safe:        {}",
            self.patterns_live_and_safe
        )?;
        writeln!(
            f,
            "  composed pipeline live & safe: {}",
            self.composition_live_and_safe
        )?;
        write!(
            f,
            "  matches pipeline model:        {}",
            self.matches_pipeline_model
        )
    }
}

/// Builds one pairwise pattern for latch signals `src`/`dst` with the given
/// parities, including the auxiliary local-cycle arcs that model the
/// abstracted environment (exactly as the paper describes).
pub fn pairwise_pattern(
    src: &str,
    src_parity: Parity,
    dst: &str,
    dst_parity: Parity,
    protocol: Protocol,
) -> MarkedGraph {
    let mut g = MarkedGraph::new();
    let src_rise = g.add_transition(format!("{src}+"));
    let src_fall = g.add_transition(format!("{src}-"));
    let dst_rise = g.add_transition(format!("{dst}+"));
    let dst_fall = g.add_transition(format!("{dst}-"));
    let resolve = |event: PairEvent| match event {
        PairEvent::SrcRise => (src_rise, src_parity, true),
        PairEvent::SrcFall => (src_fall, src_parity, false),
        PairEvent::DstRise => (dst_rise, dst_parity, true),
        PairEvent::DstFall => (dst_fall, dst_parity, false),
    };
    for &(from, to) in protocol.pair_arcs() {
        let (f, fp, fr) = resolve(from);
        let (t, tp, tr) = resolve(to);
        g.add_place(f, t, initial_tokens(fp, fr, tp, tr), 1.0);
    }
    // Auxiliary arcs: the local cycles of both controllers, modelling the
    // abstracted predecessor of `src` and successor of `dst`.
    for &(rise, fall, parity) in &[
        (src_rise, src_fall, src_parity),
        (dst_rise, dst_fall, dst_parity),
    ] {
        g.add_place(rise, fall, initial_tokens(parity, true, parity, false), 1.0);
        g.add_place(fall, rise, initial_tokens(parity, false, parity, true), 1.0);
    }
    g
}

/// Runs the Figure 4 experiment.
pub fn figure4() -> Figure4 {
    let protocol = Protocol::FullyDecoupled;
    let even_to_odd = pairwise_pattern("A_m", Parity::Even, "A_s", Parity::Odd, protocol);
    let odd_to_even = pairwise_pattern("A_s", Parity::Odd, "B_m", Parity::Even, protocol);
    let patterns_live_and_safe = even_to_odd.is_live()
        && even_to_odd.is_safe()
        && odd_to_even.is_live()
        && odd_to_even.is_safe();

    // Compose the patterns along a 2-register pipeline (A -> B) and compare
    // against the model the flow builds for the same pipeline.
    let composed = compose(&[
        pairwise_pattern("A_m", Parity::Even, "A_s", Parity::Odd, protocol),
        pairwise_pattern("A_s", Parity::Odd, "B_m", Parity::Even, protocol),
        pairwise_pattern("B_m", Parity::Even, "B_s", Parity::Odd, protocol),
    ]);
    let composition_live_and_safe = composed.is_live() && composed.is_safe();

    // The reference model from the flow (delays differ, structure must not).
    let mut netlist = Netlist::new("fig4pipe");
    let clk = netlist.add_input("clk");
    let din = netlist.add_input("din");
    let qa = netlist.add_net("qa");
    let wa = netlist.add_net("wa");
    let qb = netlist.add_output("qb");
    netlist.add_dff("A", din, clk, qa).unwrap();
    netlist.add_gate("g", CellKind::Not, &[qa], wa).unwrap();
    netlist.add_dff("B", wa, clk, qb).unwrap();
    let library = CellLibrary::generic_90nm();
    // The environment pair is disabled here: Figure 4 is about the bare
    // latch-to-latch patterns, whose composition is compared against the
    // circuit-only model.
    let design = DesyncFlow::new(
        &netlist,
        &library,
        DesyncOptions::default()
            .with_clustering(ClusteringStrategy::PerRegister)
            .with_protocol(protocol)
            .with_environment(false),
    )
    .expect("valid options")
    .design()
    .expect("desynchronization");
    // The flow additionally forbids master/slave overlap inside one register
    // (an intra-pair `m- -> s+` arc), which the raw Figure 4 patterns do not
    // include; add the same arcs before comparing structures.
    let composed_with_intra = compose(&[
        composed.clone(),
        desync_mg::compose::from_edges(&[
            (
                "A_m-",
                "A_s+",
                initial_tokens(Parity::Even, false, Parity::Odd, true),
                1.0,
            ),
            (
                "B_m-",
                "B_s+",
                initial_tokens(Parity::Even, false, Parity::Odd, true),
                1.0,
            ),
        ]),
    ]);
    let matches_pipeline_model =
        same_structure(&composed_with_intra, design.control_model().graph());

    Figure4 {
        even_to_odd,
        odd_to_even,
        patterns_live_and_safe,
        composition_live_and_safe,
        matches_pipeline_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_statistics() {
        let fig = figure1();
        assert_eq!(fig.latches, 2 * fig.flip_flops);
        assert_eq!(fig.combinational_before, fig.combinational_after);
        assert!(fig.controllers > 0);
        assert!(fig.flow_equivalent);
        assert!(fig.to_string().contains("Figure 1"));
    }

    #[test]
    fn figure2_model_is_live_safe_consistent() {
        let fig = figure2();
        assert_eq!(fig.clusters, 7);
        assert!(fig.live);
        assert!(fig.safe);
        assert_ne!(fig.consistent, Some(false));
        assert!(fig.cycle_time_ps > 0.0);
        // 2 controllers per register plus the environment pair, with 2
        // transitions (rise/fall) per controller.
        assert_eq!(fig.model.num_transitions(), 7 * 4 + 4);
        assert!(fig.to_string().contains("Figure 2"));
    }

    #[test]
    fn figure3_overlap_and_no_overwriting() {
        let fig = figure3();
        assert!(fig.no_overwriting);
        assert!(
            fig.pulses_overlap,
            "the overlapping protocol should overlap"
        );
        assert_eq!(fig.waveforms.len(), 8);
        assert!(fig.cycle_time_ps > 0.0);
        assert!(fig.to_string().contains("Figure 3"));
    }

    #[test]
    fn figure4_patterns_compose_into_the_pipeline_model() {
        let fig = figure4();
        assert!(fig.patterns_live_and_safe);
        assert!(fig.composition_live_and_safe);
        assert!(fig.matches_pipeline_model);
        assert_eq!(fig.even_to_odd.num_transitions(), 4);
        assert_eq!(fig.odd_to_even.num_transitions(), 4);
        assert!(fig.to_string().contains("Figure 4"));
    }
}
