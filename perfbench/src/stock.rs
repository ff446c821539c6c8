//! `stock-verify`: verification of the stock designs.
//!
//! The grid is the 6×8×4 pipeline and the DLX, each under 3 protocols × 3
//! margins: 18 points. One op takes a fresh `DesyncEngine` with two
//! workers, runs `DesyncService::run_sweep` (scalar, one stimulus per
//! point) and then `run_campaign` on the same engine (64 pseudo-random
//! lanes per point, lane seeds drawn from `--seed`). Construction is cached
//! across points, so simulation does nearly all the work: the scalar sweep
//! and the packed campaign drive one `CompiledModel` and calendar queue in
//! two ways, and a packed-side gain that costs the scalar kernel shows.

use crate::probe::{self, ProbeInput};
use crate::trace;
use crate::util::{median, ms, peak_rss_mb, tail, Outcome, Rng};
use desync_circuits::dlx::{encode_instruction, instruction_nets};
use desync_circuits::{DlxConfig, LinearPipelineConfig};
use desync_core::{
    CampaignRequest, DesyncEngine, DesyncError, DesyncFlow, DesyncOptions, DesyncRuntime,
    DesyncService, EngineReport, Protocol, QueueConfig, QueueSweepRequest, ServiceQueue,
    StoreConfig, SubmitOptions, SweepRequest,
};
use desync_netlist::edif::{from_edif, to_edif};
use desync_netlist::{CellLibrary, NetId, Netlist, Value};
use desync_sim::{PackedVectorSource, VectorSource, MAX_LANES};
use std::sync::Arc;
use std::time::Instant;

/// Captures compared per point.
const CYCLES: usize = 48;
/// Matched-delay margins swept per protocol.
const MARGINS: [f64; 3] = [0.05, 0.1, 0.2];
/// Service workers (and sizing-pool workers) of every op.
const WORKERS: usize = 2;
/// Set-ups repeated back to back after every op; their mean time is one
/// sample of `setup_s`, the median over the run's samples. A single
/// set-up takes a few milliseconds, and on a shared host such short
/// samples fell into a fast and a slow mode about 1.7x apart, with their
/// median jumping between the two from run to run; a block of ~0.1 s
/// after every op samples the whole run instead of a few instants.
const SETUP_BLOCK: usize = 25;
/// Ops measured at least, however long they take.
const MIN_OPS: usize = 3;
/// Scalar sweep events, the same for every seed (the sweep stimuli are
/// fixed).
const SWEEP_EVENTS: usize = 434_104;
/// Packed (word, lane) events pinned for the seeds the benchmark ships
/// (default and held-out); the lane stimuli follow the seed.
const PINNED: [(u64, (usize, usize)); 2] =
    [(1, (5_684_705, 30_719_795)), (2, (5_259_311, 30_022_541))];
/// Lanes probed against detached scalar flows, per design.
const PROBE_LANES: [usize; 3] = [0, MAX_LANES / 2, MAX_LANES - 1];

/// The DLX instruction loop: ALU ops, immediates, a store and a dependent
/// load, so forwarding, the register file and the scratchpad all toggle.
const DLX_PROGRAM: [(u16, u16, u16, u16, u16); 12] = [
    (0b101, 1, 0, 0, 5),
    (0b101, 2, 1, 0, 3),
    (0b000, 3, 1, 2, 0),
    (0b001, 4, 3, 1, 0),
    (0b010, 5, 3, 2, 0),
    (0b011, 6, 5, 4, 0),
    (0b100, 7, 6, 3, 0),
    (0b111, 0, 2, 7, 1),
    (0b110, 1, 2, 0, 1),
    (0b000, 2, 1, 7, 0),
    (0b101, 6, 6, 0, 9),
    (0b100, 5, 6, 2, 0),
];

/// A design of the grid with its EDIF text and its scalar and packed
/// stimuli.
struct StockDesign {
    netlist: Netlist,
    edif: String,
    stimulus: VectorSource,
    packed: PackedVectorSource,
}

/// Non-clock primary inputs: the nets the campaign lanes drive.
pub fn data_inputs(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect()
}

/// Per-lane campaign seeds drawn from the workload seed.
pub fn lane_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x1a9e);
    (0..MAX_LANES).map(|_| rng.next_u64()).collect()
}

fn designs(seed: u64) -> Vec<StockDesign> {
    let lanes = lane_seeds(seed);
    let pipe = LinearPipelineConfig::balanced(6, 8, 4)
        .generate()
        .expect("pipeline generation");
    let din: Vec<NetId> = (0..8)
        .map(|i| {
            pipe.find_net(&format!("din[{i}]"))
                .expect("pipeline din bus")
        })
        .collect();
    let pipe_stimulus = VectorSource::pseudo_random(din, 7);
    let dlx = DlxConfig::default().generate().expect("dlx generation");
    let instr = instruction_nets(&dlx);
    let dlx_stimulus = VectorSource::sequence(
        DLX_PROGRAM
            .iter()
            .map(|&(op, rd, rs1, rs2, imm)| {
                let word = encode_instruction(op, rd, rs1, rs2, imm);
                instr
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, Value::from_bool(word >> i & 1 == 1)))
                    .collect()
            })
            .collect(),
    );
    [(pipe, pipe_stimulus), (dlx, dlx_stimulus)]
        .into_iter()
        .map(|(netlist, stimulus)| {
            let packed = PackedVectorSource::pseudo_random(data_inputs(&netlist), &lanes);
            StockDesign {
                edif: to_edif(&netlist),
                netlist,
                stimulus,
                packed,
            }
        })
        .collect()
}

/// The 18 grid points as (design index, options), in submission order.
fn grid() -> Vec<(usize, DesyncOptions)> {
    let mut points = Vec::new();
    for design in 0..2 {
        for &protocol in Protocol::all() {
            for &margin in &MARGINS {
                let options = DesyncOptions::default()
                    .with_protocol(protocol)
                    .with_margin(margin);
                points.push((design, options));
            }
        }
    }
    points
}

/// Whether a point is expected flow equivalent: everything but the DLX
/// under the non-overlapping protocol, whatever the stimulus.
fn expected_equivalent(designs: &[StockDesign], design: usize, options: &DesyncOptions) -> bool {
    designs[design].netlist.name() != "dlx" || options.protocol != Protocol::NonOverlapping
}

/// The deterministic counters of one op, identical on every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    sweep_equivalent: usize,
    campaign_equivalent: usize,
    events: usize,
    word_events: usize,
    lane_events: usize,
    sync_run_misses: usize,
    compiled_model_misses: usize,
    sizing_misses: usize,
}

/// Runs the workload for `seconds` of ops.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let library = CellLibrary::generic_90nm();

    let stock = designs(seed);
    let mut setup = Vec::new();
    let mut setup_drift = 0usize;

    let points = grid();
    let sweep_requests: Vec<SweepRequest<'_>> = points
        .iter()
        .map(|&(d, options)| {
            let design = &stock[d];
            SweepRequest::new(&design.netlist, &library, options, &design.stimulus, CYCLES)
        })
        .collect();
    let campaign_requests: Vec<CampaignRequest<'_>> = points
        .iter()
        .map(|&(d, options)| {
            let design = &stock[d];
            CampaignRequest::new(&design.netlist, &library, options, &design.packed, CYCLES)
        })
        .collect();
    let expected: Vec<bool> = points
        .iter()
        .map(|(d, options)| expected_equivalent(&stock, *d, options))
        .collect();

    let mut sweep_walls = Vec::new();
    let mut campaign_rates = Vec::new();
    let mut first: Option<Counters> = None;
    let mut last_report: Option<EngineReport> = None;
    let mut last_campaign = None;
    let window = Instant::now();
    let mut op = 0u64;
    while sweep_walls.len() < MIN_OPS || window.elapsed().as_secs_f64() < seconds {
        op += 1;
        let service = DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            StoreConfig::default(),
            DesyncRuntime::with_workers(WORKERS),
        ))
        .with_concurrency(WORKERS);
        let started = Instant::now();
        let sweep = trace::span("service.run_sweep", op, || {
            service.run_sweep(&sweep_requests)
        });
        let sweep_wall = started.elapsed();
        let engine = service.engine().report();
        let started = Instant::now();
        let campaign = trace::span("service.run_campaign", op, || {
            service.run_campaign(&campaign_requests)
        });
        let campaign_wall = started.elapsed();

        out.attempted += 2 * points.len();
        let mut counters = Counters {
            sweep_equivalent: 0,
            campaign_equivalent: 0,
            events: sweep.report.events_simulated(),
            word_events: campaign.report.events_simulated(),
            lane_events: campaign.lane_events_simulated,
            sync_run_misses: engine.sync_run_misses,
            compiled_model_misses: engine.compiled_model_misses,
            sizing_misses: engine.sizing_misses,
        };
        for (i, result) in sweep.results.iter().enumerate() {
            match result {
                Ok(report) if report.is_equivalent() == expected[i] => {
                    counters.sweep_equivalent += usize::from(report.is_equivalent());
                }
                Ok(_) => {
                    out.failed += 1;
                    out.problem(format!("op {op}: sweep point {i} verdict flipped"));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("op {op}: sweep point {i}: {e}"));
                }
            }
        }
        for (i, result) in campaign.results.iter().enumerate() {
            let want = if expected[i] { MAX_LANES } else { 0 };
            match result {
                Ok(report) if report.equivalent_lanes() == want => {
                    counters.campaign_equivalent += want;
                }
                Ok(report) => {
                    out.failed += 1;
                    out.problem(format!(
                        "op {op}: campaign point {i}: {} equivalent lanes, expected {want}",
                        report.equivalent_lanes()
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("op {op}: campaign point {i}: {e}"));
                }
            }
        }
        match first {
            None => first = Some(counters),
            Some(f) if f != counters => {
                out.failed += 1;
                out.problem(format!("op {op}: counters drifted: {counters:?} vs {f:?}"));
            }
            Some(_) => {}
        }
        sweep_walls.push(ms(sweep_wall));
        let verdicts = (points.len() * MAX_LANES) as f64;
        campaign_rates.push(verdicts / campaign_wall.as_secs_f64());
        last_report = Some(engine);
        last_campaign = Some(campaign);
        drop(service);
        if op == 1 {
            // The peak of set-up and one op. Every op spawns fresh workers,
            // and the memory the allocator keeps after each op grows with
            // how they happened to interleave: over a whole run the peak
            // spread by a quarter between runs of the same code.
            out.set("peak_rss_mb", peak_rss_mb(), "MB");
        }

        let mut block = 0.0;
        for _ in 0..SETUP_BLOCK {
            let started = Instant::now();
            let again = designs(seed);
            block += started.elapsed().as_secs_f64();
            setup_drift += usize::from(again.iter().zip(&stock).any(|(a, b)| a.edif != b.edif));
        }
        setup.push(block / SETUP_BLOCK as f64);
    }
    let measured = window.elapsed().as_secs_f64();
    out.set("setup_s", median(&setup), "s");
    out.check(setup_drift == 0, || {
        format!("{setup_drift} set-ups generated other designs than the first")
    });

    // Seed-independent pins: 15 of 18 points, 960 of 1,152 lanes, and the
    // exactly-once misses of one sweep (one sync run and one sizing
    // analysis per design; one sync and one datapath model per design).
    if let Some(c) = first {
        out.check(c.sweep_equivalent == 15, || {
            format!(
                "{} of 18 sweep points equivalent, expected 15",
                c.sweep_equivalent
            )
        });
        out.check(c.campaign_equivalent == 960, || {
            format!(
                "{} of 1152 lanes equivalent, expected 960",
                c.campaign_equivalent
            )
        });
        out.check(
            (c.sync_run_misses, c.compiled_model_misses, c.sizing_misses) == (2, 4, 2),
            || format!("exactly-once misses {c:?}, expected 2/4/2"),
        );
        out.check(c.events == SWEEP_EVENTS, || {
            format!("{} sweep events, expected {SWEEP_EVENTS}", c.events)
        });
        if let Some(&(_, pinned)) = PINNED.iter().find(|(s, _)| *s == seed) {
            out.check((c.word_events, c.lane_events) == pinned, || {
                format!(
                    "packed events {:?}, pinned {pinned:?}",
                    (c.word_events, c.lane_events)
                )
            });
        }
        out.set("sim.events", c.events as f64, "count");
        out.set("sim.word_events", c.word_events as f64, "count");
        out.set("sim.lane_events", c.lane_events as f64, "count");
        out.set(
            "sim.live_lanes_per_word",
            c.lane_events as f64 / c.word_events.max(1) as f64,
            "lanes/word",
        );
        println!(
            "counters: sweep {}/18 points, campaign {}/1152 lanes, events {}, word events {}, \
             lane events {}, misses sync {} / compiled {} / sizing {}",
            c.sweep_equivalent,
            c.campaign_equivalent,
            c.events,
            c.word_events,
            c.lane_events,
            c.sync_run_misses,
            c.compiled_model_misses,
            c.sizing_misses
        );
    }
    if let Some(report) = &last_report {
        probe::record_store(&mut out, report);
    }

    // Probe lanes: bit-identical to detached scalar flows under the
    // matching single-seed stimulus.
    if let Some(campaign) = &last_campaign {
        let seeds = lane_seeds(seed);
        for (d, design) in stock.iter().enumerate() {
            let index = d * Protocol::all().len() * MARGINS.len();
            let (_, options) = points[index];
            let Ok(report) = &campaign.results[index] else {
                continue;
            };
            let netlist = &design.netlist;
            for &lane in &PROBE_LANES {
                let mut flow = DesyncFlow::new(netlist, &library, options).expect("options");
                flow.set_verification(
                    VectorSource::pseudo_random(data_inputs(netlist), seeds[lane]),
                    CYCLES,
                );
                let same = flow.verified().is_ok_and(|scalar| {
                    report.lane_equivalence[lane] == scalar.equivalence
                        && report.compared_cycles[lane] == scalar.compared_cycles
                });
                out.check(same, || {
                    format!(
                        "{} lane {lane} differs from its scalar flow",
                        netlist.name()
                    )
                });
            }
        }
    }

    let p50 = median(&sweep_walls);
    let (tail_ms, pct) = tail(&sweep_walls);
    let campaign_rate = median(&campaign_rates);
    let sweep_rate = points.len() as f64 / (p50 / 1e3);
    out.set("p50_ms", p50, "ms");
    out.set("throughput_per_s", campaign_rate, "1/s");
    println!(
        "sweep_verdicts_per_s = {sweep_rate} 1/s; campaign_verdicts_per_s = {campaign_rate} 1/s \
         (ratio {} over a base of {sweep_rate} scalar verdicts/s; {} ops in {measured:.1} s; \
         tail_ms = {tail_ms} ms at p{pct:.1}; setup_s over {} blocks of {SETUP_BLOCK} set-ups)",
        campaign_rate / sweep_rate,
        sweep_walls.len(),
        setup.len()
    );

    if trace::enabled() {
        traced_extras(&stock, &library, &mut out);
    }
    out
}

/// Traced-run extras: per-layer probes of both stock designs, and the 18
/// sweep points submitted straight to a `ServiceQueue` so admission and
/// queue waits show.
fn traced_extras(stock: &[StockDesign], library: &CellLibrary, out: &mut Outcome) {
    let mut counts = probe::ProbeCounts::default();
    for (i, design) in stock.iter().enumerate() {
        let input = ProbeInput {
            netlist: &design.netlist,
            options: DesyncOptions::default(),
            stimulus: design.stimulus.clone(),
            packed: design.packed.clone(),
            cycles: CYCLES,
        };
        for rep in 0..probe::REPS {
            let op = (1 << 40) + (i * probe::REPS + rep) as u64;
            let parsed = trace::span("edif.parse", op, || from_edif(&design.edif));
            out.check(parsed.is_ok_and(|n| n == design.netlist), || {
                format!("{} does not round-trip through EDIF", design.netlist.name())
            });
            match probe::probe(&input, library, op) {
                Ok(c) if rep == 0 => counts.add(&c),
                Ok(_) => {}
                Err(e) => out.problem(format!("{} probe: {e}", design.netlist.name())),
            }
        }
    }
    counts.record_construction(out);

    let engine = Arc::new(DesyncEngine::with_store_and_runtime(
        StoreConfig::default(),
        DesyncRuntime::with_workers(WORKERS),
    ));
    let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(WORKERS));
    let library = Arc::new(library.clone());
    let netlists: Vec<Arc<Netlist>> = stock.iter().map(|d| Arc::new(d.netlist.clone())).collect();
    queue.pause();
    let tickets: Vec<_> = grid()
        .into_iter()
        .enumerate()
        .map(|(i, (d, options))| {
            let request = QueueSweepRequest::new(
                Arc::clone(&netlists[d]),
                Arc::clone(&library),
                options,
                stock[d].stimulus.clone(),
                CYCLES,
            );
            trace::span("submit.admit", (1 << 41) + i as u64, || {
                queue.submit_sweep(request, SubmitOptions::new())
            })
        })
        .collect();
    queue.resume();
    let mut rejections = 0;
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => {}
            Err(DesyncError::LintRejected(_)) => rejections += 1,
            Err(e) => out.problem(format!("queue probe: {e}")),
        }
    }
    out.set("lint.rejections", f64::from(rejections), "count");
    probe::record_queue(out, &queue);
}
