//! `fabric-build`: construction at scale.
//!
//! Set-up generates a 50k-cell mesh fabric (200 register chains × 125
//! stages; each stage's NAND reads its own chain and one of the next three
//! chains, picked by the seed) and writes it to EDIF text in memory. One op
//! runs a fresh detached flow from that text to the assembled design:
//! `from_edif` → `DesyncFlow::lint` → `clustered` → `latched` → `timed` →
//! `controlled` → `designed`. Nothing is simulated and no service runs, so
//! a simulator or queue change predicts no movement here. Traced runs also
//! build the 25k- and 10⁵-cell fabrics and report each call's growth
//! between them.

use crate::probe::{self, ProbeInput};
use crate::trace;
use crate::util::{median, ms, peak_rss_mb, tail, Digest, Outcome, Rng};
use desync_core::{ClusteringStrategy, DesyncDesign, DesyncFlow, DesyncOptions};
use desync_netlist::edif::{from_edif, to_edif};
use desync_netlist::{CellKind, CellLibrary, NetId, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Register chains of the op's fabric (one cluster each): 50k cells.
pub const CHAINS: usize = 200;
/// Stages per chain; each stage is one NAND and one flip-flop.
pub const STAGES: usize = 125;
/// Chains of the 25k- and 100k-cell fabrics the traced run builds to
/// report construction growth.
const GROWTH_CHAINS: (usize, usize) = (100, 400);

/// Assembled-design digests pinned for the seeds the benchmark ships
/// (default and held-out). Other seeds check that every op agrees.
const PINNED: [(u64, u64); 2] = [(1, 0x9d1f_b89f_1e8a_1558), (2, 0x5cf6_a7f4_a0f7_78ee)];

/// Ops measured at least, however long they take.
const MIN_OPS: usize = 3;

/// The fabric generator: `chains` × `stages`, cross-links drawn from `seed`.
///
/// # Panics
///
/// Panics if the netlist builder rejects a cell (it cannot: every net has
/// exactly one driver).
pub fn generate(chains: usize, stages: usize, seed: u64) -> Netlist {
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
                .expect("fabric gate");
            n.add_dff(format!("c{c}_r[{s}]"), w, clk, q[c][s])
                .expect("fabric flip-flop");
        }
        n.mark_output(q[c][stages - 1]);
    }
    n
}

/// Flow options of every fabric build: one cluster per chain.
pub fn options() -> DesyncOptions {
    DesyncOptions::default().with_clustering(ClusteringStrategy::ByNamePrefix)
}

/// Digest of an assembled design: clusters, cluster edges, matched-delay
/// cells, overhead cells and the cycle-time bits.
pub fn design_digest(design: &DesyncDesign) -> u64 {
    let mut d = Digest::default();
    let clusters = design.clusters();
    d.word(clusters.clusters.len() as u64);
    for cluster in &clusters.clusters {
        d.bytes(cluster.name.as_bytes())
            .word(cluster.registers.len() as u64);
    }
    let mut edges: Vec<(usize, usize)> = clusters.edges.iter().map(|e| (e.from, e.to)).collect();
    edges.sort_unstable();
    for (from, to) in edges {
        d.word(from as u64).word(to as u64);
    }
    let mut delays: Vec<_> = design
        .matched_delays()
        .iter()
        .map(|(&(from, to), m)| (from, to, m.num_cells, m.achieved_ps.to_bits()))
        .collect();
    delays.sort_unstable();
    for (from, to, cells, achieved) in delays {
        d.word(from as u64)
            .word(to as u64)
            .word(cells as u64)
            .word(achieved);
    }
    d.word(design.overhead_netlist().num_cells() as u64)
        .word(design.cycle_time_ps().to_bits());
    d.finish()
}

/// Construction counters of one build, identical on every op of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Built {
    digest: u64,
    clusters: usize,
    edges: usize,
    transitions: usize,
    places: usize,
}

/// One op: EDIF text → assembled design through a fresh detached flow,
/// every stage accessor in its own span. Returns the wall time up to the
/// assembled design (tear-down excluded) and the construction counters.
/// Traced runs then probe the STA and marked-graph layers of the design,
/// outside the op's wall time.
fn build(text: &str, library: &CellLibrary, op: u64) -> Result<(Duration, Built), String> {
    let started = Instant::now();
    let netlist = trace::span("edif.parse", op, || from_edif(text)).map_err(|e| e.to_string())?;
    let mut flow = DesyncFlow::new(&netlist, library, options()).map_err(|e| e.to_string())?;
    let err = |e: desync_core::DesyncError| e.to_string();
    let lint = trace::span("lint.design", op, || flow.lint()).map_err(err)?;
    trace::span("pipeline.clustered", op, || flow.clustered().map(|_| ())).map_err(err)?;
    trace::span("pipeline.latched", op, || flow.latched().map(|_| ())).map_err(err)?;
    trace::span("pipeline.timed", op, || flow.timed().map(|_| ())).map_err(err)?;
    trace::span("pipeline.controlled", op, || flow.controlled().map(|_| ())).map_err(err)?;
    trace::span("pipeline.assemble", op, || flow.designed().map(|_| ())).map_err(err)?;
    let wall = started.elapsed();
    if !lint.is_clean() {
        return Err(format!(
            "fabric lint is not clean: {}",
            lint.errors().count()
        ));
    }
    let design = flow.designed().map_err(err)?;
    if trace::enabled() {
        probe::probe_graph(&netlist, design, library, &options(), op)?;
    }
    let graph = design.control_model().graph();
    let built = Built {
        digest: design_digest(design),
        clusters: design.clusters().len(),
        edges: design.clusters().edges.len(),
        transitions: graph.num_transitions(),
        places: graph.num_places(),
    };
    Ok((wall, built))
}

/// Runs the workload for `seconds` of ops.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let library = CellLibrary::generic_90nm();

    let set_up = || to_edif(&generate(CHAINS, STAGES, seed));
    let started = Instant::now();
    let text = set_up();
    let mut setup = vec![started.elapsed().as_secs_f64()];
    let mut setup_drift = 0usize;

    let mut walls = Vec::new();
    let mut first: Option<Built> = None;
    let window = Instant::now();
    let mut op = 0u64;
    while walls.len() < MIN_OPS || window.elapsed().as_secs_f64() < seconds {
        op += 1;
        out.attempted += 1;
        match trace::span("op.fabric_build", op, || build(&text, &library, op)) {
            Ok((wall, built)) => {
                walls.push(ms(wall));
                match first {
                    None => first = Some(built),
                    Some(f) if f != built => {
                        out.failed += 1;
                        out.problem(format!("op {op}: construction drifted: {built:?} vs {f:?}"));
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("op {op}: {e}"));
            }
        }
        // One set-up after every op: `setup_s`, the median of these and the
        // first, samples the host over the whole run, not its first second.
        let started = Instant::now();
        let again = set_up();
        setup.push(started.elapsed().as_secs_f64());
        setup_drift += usize::from(again != text);
    }
    let measured = window.elapsed().as_secs_f64();
    out.set("setup_s", median(&setup), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.check(setup_drift == 0, || {
        format!("{setup_drift} set-ups generated another fabric than the first")
    });

    let Some(built) = first else {
        return out;
    };
    out.check(built.clusters == CHAINS, || {
        format!("{} clusters, expected {CHAINS}", built.clusters)
    });
    if let Some(&(_, pinned)) = PINNED.iter().find(|(s, _)| *s == seed) {
        out.check(pinned == built.digest, || {
            format!(
                "design digest {:#018x} != pinned {pinned:#018x}",
                built.digest
            )
        });
    }
    println!("fabric.digest = {:#018x}", built.digest);
    out.set("cluster.count", built.clusters as f64, "count");
    out.set("cluster.edges", built.edges as f64, "count");
    out.set("mg.transitions", built.transitions as f64, "count");
    out.set("mg.places", built.places as f64, "count");

    if !walls.is_empty() {
        let p50 = median(&walls);
        let (tail_ms, pct) = tail(&walls);
        let cells = (CHAINS * STAGES * 2) as f64;
        out.set("p50_ms", p50, "ms");
        out.set("throughput_per_s", cells / (p50 / 1e3), "1/s");
        println!(
            "design_s = {} s (median of {} ops in {measured:.1} s); tail_ms = {tail_ms} ms at \
             p{pct:.1}; {} cells designed per second; setup_s over {} set-ups",
            p50 / 1e3,
            walls.len(),
            cells / (p50 / 1e3),
            setup.len()
        );
    }

    if trace::enabled() {
        traced_extras(seed, &library, &mut out);
    }
    out
}

/// Traced-run extras: the construction growth from 25k to 100k cells, and
/// the simulation and queue probes on a small fabric (64-lane runs of the
/// op's fabric would dominate the run's memory).
fn traced_extras(seed: u64, library: &CellLibrary, out: &mut Outcome) {
    let large = stage_times(GROWTH_CHAINS.1, seed, 2, library);
    let small = stage_times(GROWTH_CHAINS.0, seed, 3, library);
    for (name, large) in &large {
        let cells = |chains: usize| chains * STAGES * 2 / 1000;
        println!(
            "{name}_ms_growth = {} x ({}k over {}k cells)",
            large / small[name],
            cells(GROWTH_CHAINS.1),
            cells(GROWTH_CHAINS.0)
        );
    }

    let netlist = generate(SIM_CHAINS, STAGES, seed);
    let inputs: Vec<NetId> = netlist.inputs()[1..].to_vec();
    let lanes: Vec<u64> = (0..64)
        .map(|lane| seed.wrapping_mul(64).wrapping_add(lane))
        .collect();
    let input = ProbeInput {
        netlist: &netlist,
        options: options(),
        stimulus: VectorSource::pseudo_random(inputs.clone(), seed),
        packed: PackedVectorSource::pseudo_random(inputs, &lanes),
        cycles: PROBE_CYCLES,
    };
    let mut flow = DesyncFlow::new(&netlist, library, options()).expect("fabric options");
    match flow.designed() {
        Ok(design) => match probe::probe_sim(&input, design, library, 1 << 40) {
            Ok(counts) => counts.record_sim(out),
            Err(e) => out.problem(format!("fabric sim probe: {e}")),
        },
        Err(e) => out.problem(format!("fabric sim probe: {e}")),
    }
    probe::queue_probe_designs(&[&netlist], library, options(), out);
}

/// Median wall time, in ms, of each growth-tracked call over `reps` builds
/// of a `chains`-chain fabric (timed directly, outside the span arena).
fn stage_times(
    chains: usize,
    seed: u64,
    reps: usize,
    library: &CellLibrary,
) -> BTreeMap<&'static str, f64> {
    let text = to_edif(&generate(chains, STAGES, seed));
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        times.entry(name).or_default().push(ms(started.elapsed()));
    };
    for _ in 0..reps {
        let mut netlist = None;
        time("edif.parse", &mut || {
            netlist = Some(from_edif(&text).expect("fabric parses"));
        });
        let netlist = netlist.expect("parsed above");
        let mut flow = DesyncFlow::new(&netlist, library, options()).expect("fabric options");
        for (name, step) in STAGE_STEPS {
            time(name, &mut || step(&mut flow));
        }
        let model = flow.designed().expect("fabric designs").control_model();
        time("mg.cycle_time", &mut || {
            black_box(desync_mg::timing::cycle_time(model.graph()));
        });
        time("mg.is_safe", &mut || {
            black_box(model.is_safe());
        });
    }
    times
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect()
}

/// Chains of the fabric the simulation and queue probes run on.
const SIM_CHAINS: usize = 25;
/// Captures the fabric simulation probes compare.
const PROBE_CYCLES: usize = 8;

type StageStep = (&'static str, fn(&mut DesyncFlow<'_>));

/// The stage accessors of one op, in order, for the growth builds.
const STAGE_STEPS: [StageStep; 5] = [
    ("pipeline.clustered", |f| {
        f.clustered().expect("clustered");
    }),
    ("pipeline.latched", |f| {
        f.latched().expect("latched");
    }),
    ("pipeline.timed", |f| {
        f.timed().expect("timed");
    }),
    ("pipeline.controlled", |f| {
        f.controlled().expect("controlled");
    }),
    ("pipeline.assemble", |f| {
        f.designed().expect("designed");
    }),
];
