//! Per-layer probes shared by the workloads' traced runs.
//!
//! The service and the staged flow hide their inner calls, so a traced run
//! also drives each layer's public entry points directly on the workload's
//! own designs, every call in a span: the flow stage accessors, `Sta`,
//! `desync_mg::timing::cycle_time`, `ControlModel::is_safe` / `is_live`,
//! `CompiledModel::compile` and the `desync_core::verify` runs. The store
//! and queue metrics come from `EngineReport`, `ServiceQueue::counters` and
//! the dispatch log.

use crate::trace;
use crate::util::{median, Outcome};
use desync_core::verify::sim_config_from;
use desync_core::{
    packed_sync_reference_run_with_model, sync_reference_run_with_model,
    verify_flow_equivalence_packed_with_parts, verify_flow_equivalence_with_parts, DesyncDesign,
    DesyncEngine, DesyncError, DesyncFlow, DesyncOptions, DesyncRuntime, EngineReport, QueueConfig,
    QueueRequest, ServiceQueue, StoreConfig, SubmitOptions,
};
use desync_netlist::{CellLibrary, Netlist};
use desync_sim::{CompiledModel, PackedVectorSource, VectorSource, MAX_LANES};
use desync_sta::Sta;
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of each probe on small designs (medians are reported).
pub const REPS: usize = 3;

/// One design to probe, with the stimuli of its scalar and packed runs.
pub struct ProbeInput<'a> {
    /// The synchronous netlist.
    pub netlist: &'a Netlist,
    /// Flow options of the probe.
    pub options: DesyncOptions,
    /// Scalar stimulus.
    pub stimulus: VectorSource,
    /// Packed (multi-lane) stimulus.
    pub packed: PackedVectorSource,
    /// Captures compared.
    pub cycles: usize,
}

/// Deterministic work counts of one or more probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    clusters: usize,
    edges: usize,
    transitions: usize,
    places: usize,
    events: usize,
    word_events: usize,
    lane_events: usize,
}

impl ProbeCounts {
    /// Adds another probe's counts.
    pub fn add(&mut self, other: &ProbeCounts) {
        self.clusters += other.clusters;
        self.edges += other.edges;
        self.transitions += other.transitions;
        self.places += other.places;
        self.events += other.events;
        self.word_events += other.word_events;
        self.lane_events += other.lane_events;
    }

    /// Records the construction counts (clusters, edges, marked graph).
    pub fn record_construction(&self, out: &mut Outcome) {
        out.set("cluster.count", self.clusters as f64, "count");
        out.set("cluster.edges", self.edges as f64, "count");
        out.set("mg.transitions", self.transitions as f64, "count");
        out.set("mg.places", self.places as f64, "count");
    }

    /// Records construction and simulation counts.
    pub fn record(&self, out: &mut Outcome) {
        self.record_construction(out);
        self.record_sim(out);
    }

    /// Records the simulation counts.
    pub fn record_sim(&self, out: &mut Outcome) {
        out.set("sim.events", self.events as f64, "count");
        out.set("sim.word_events", self.word_events as f64, "count");
        out.set("sim.lane_events", self.lane_events as f64, "count");
        out.set(
            "sim.live_lanes_per_word",
            self.lane_events as f64 / self.word_events.max(1) as f64,
            "lanes/word",
        );
    }
}

/// Drives every layer of one design through its public calls, each in a
/// span under op `op`: the flow stages, then [`probe_graph`] and
/// [`probe_sim`] on the assembled design.
///
/// # Errors
///
/// A flow, lint or simulation error, or a marked graph that is not live
/// and safe, as text.
pub fn probe(
    input: &ProbeInput<'_>,
    library: &CellLibrary,
    op: u64,
) -> Result<ProbeCounts, String> {
    let err = |e: desync_core::DesyncError| e.to_string();
    let mut flow = DesyncFlow::new(input.netlist, library, input.options).map_err(err)?;
    trace::span("lint.design", op, || flow.lint()).map_err(err)?;
    trace::span("pipeline.clustered", op, || flow.clustered().map(|_| ())).map_err(err)?;
    trace::span("pipeline.latched", op, || flow.latched().map(|_| ())).map_err(err)?;
    trace::span("pipeline.timed", op, || flow.timed().map(|_| ())).map_err(err)?;
    trace::span("pipeline.controlled", op, || flow.controlled().map(|_| ())).map_err(err)?;
    trace::span("pipeline.assemble", op, || flow.designed().map(|_| ())).map_err(err)?;
    let design = flow.designed().map_err(err)?;
    let mut counts = probe_graph(input.netlist, design, library, &input.options, op)?;
    counts.add(&probe_sim(input, design, library, op)?);
    Ok(counts)
}

/// The STA and marked-graph layers of an assembled design, each call in a
/// span: `Sta::new` + `clock_period`, one `arrival_from` over all inputs,
/// `desync_mg::timing::cycle_time` and `ControlModel::is_safe` / `is_live`.
///
/// # Errors
///
/// A control model that is not live and safe.
pub fn probe_graph(
    netlist: &Netlist,
    design: &DesyncDesign,
    library: &CellLibrary,
    options: &DesyncOptions,
    op: u64,
) -> Result<ProbeCounts, String> {
    let timing = options.timing;
    let sta = trace::span("sta.build", op, || {
        let sta = Sta::new(netlist, library, timing);
        black_box(sta.clock_period());
        sta
    });
    trace::span("sta.arrival", op, || {
        black_box(sta.arrival_from(netlist.inputs()))
    });

    let model = design.control_model();
    trace::span("mg.cycle_time", op, || {
        black_box(desync_mg::timing::cycle_time(model.graph()))
    });
    let safe = trace::span("mg.is_safe", op, || model.is_safe());
    let live = trace::span("mg.is_live", op, || model.is_live());
    if !(safe && live) {
        return Err(format!("control model live {live}, safe {safe}"));
    }
    let clusters = design.clusters();
    let graph = model.graph();
    Ok(ProbeCounts {
        clusters: clusters.len(),
        edges: clusters.edges.len(),
        transitions: graph.num_transitions(),
        places: graph.num_places(),
        ..ProbeCounts::default()
    })
}

/// The simulation and verification layers of an assembled design, each
/// call in a span: both `CompiledModel::compile`s, the scalar and packed
/// sync references, the enable schedule, both equivalence checks, and the
/// packed reference at 1 and 64 identical lanes.
///
/// # Errors
///
/// A simulation harness error, as text.
pub fn probe_sim(
    input: &ProbeInput<'_>,
    design: &DesyncDesign,
    library: &CellLibrary,
    op: u64,
) -> Result<ProbeCounts, String> {
    let netlist = input.netlist;
    let config = sim_config_from(&input.options.timing);
    let sync_model = Arc::new(trace::span("sim.compile", op, || {
        CompiledModel::compile(netlist, library, config)
    }));
    let async_model = Arc::new(trace::span("sim.compile", op, || {
        CompiledModel::compile(design.latch_netlist(), library, config)
    }));
    let period = design.synchronous_period_ps();
    let cycles = input.cycles;
    let text = |e: desync_netlist::NetlistError| e.to_string();
    let sync_run = trace::span("verify.sync_ref", op, || {
        sync_reference_run_with_model(netlist, &sync_model, period, cycles, &input.stimulus)
    })
    .map_err(text)?;
    trace::span("verify.schedule", op, || {
        black_box(design.enable_schedule(cycles + 2, period + 1_000.0))
    });
    let scalar = trace::span("verify.scalar", op, || {
        verify_flow_equivalence_with_parts(
            netlist,
            design,
            &input.stimulus,
            cycles,
            sync_run,
            &async_model,
        )
    })
    .map_err(text)?;
    let packed_sync = trace::span("verify.packed_sync_ref", op, || {
        packed_sync_reference_run_with_model(netlist, &sync_model, period, cycles, &input.packed)
    })
    .map_err(text)?;
    let packed = trace::span("verify.packed", op, || {
        verify_flow_equivalence_packed_with_parts(
            netlist,
            design,
            &input.packed,
            cycles,
            &packed_sync,
            &async_model,
        )
    })
    .map_err(text)?;

    // Per-lane extraction cost: identical lanes keep one word schedule, so
    // the 1 -> 64 lane slope is what each extra lane costs.
    for (name, lanes) in [("sim.lanes_1", 1), ("sim.lanes_64", MAX_LANES)] {
        let source = PackedVectorSource::interleave(vec![input.stimulus.clone(); lanes]);
        trace::span(name, op, || {
            black_box(packed_sync_reference_run_with_model(
                netlist,
                &sync_model,
                period,
                cycles,
                &source,
            ))
        })
        .map_err(text)?;
    }

    Ok(ProbeCounts {
        events: scalar.sync_run.committed_events + scalar.async_run.committed_events,
        word_events: packed.word_events(),
        lane_events: packed.lane_events(),
        ..ProbeCounts::default()
    })
}

/// Submits each design once, as a design request, to a fresh two-worker
/// `ServiceQueue` (staged under pause, then released) and records the
/// admission, queue and store metrics.
pub fn queue_probe_designs(
    designs: &[&Netlist],
    library: &CellLibrary,
    options: DesyncOptions,
    out: &mut Outcome,
) {
    let engine = Arc::new(DesyncEngine::with_store_and_runtime(
        StoreConfig::default(),
        DesyncRuntime::with_workers(2),
    ));
    let queue = ServiceQueue::new(Arc::clone(&engine), QueueConfig::with_workers(2));
    let library = Arc::new(library.clone());
    queue.pause();
    let tickets: Vec<_> = designs
        .iter()
        .enumerate()
        .map(|(i, &netlist)| {
            let request =
                QueueRequest::new(Arc::new(netlist.clone()), Arc::clone(&library), options);
            trace::span("submit.admit", (1 << 41) + i as u64, || {
                queue.submit(request, SubmitOptions::new())
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
    record_queue(out, &queue);
    record_store(out, &engine.report());
}

/// Records the store metrics of an engine report.
pub fn record_store(out: &mut Outcome, report: &EngineReport) {
    out.set("store.hit_ratio", report.hit_rate(), "fraction");
    out.set("store.evictions", report.total_evictions() as f64, "count");
    out.set("store.coalesced", report.store_coalesced as f64, "count");
    out.set(
        "store.resident_weight",
        report.resident_weight as f64,
        "weight",
    );
    out.set(
        "store.sync_run_misses",
        report.sync_run_misses as f64,
        "count",
    );
    out.set(
        "store.compiled_model_misses",
        report.compiled_model_misses as f64,
        "count",
    );
    out.set("store.sizing_misses", report.sizing_misses as f64, "count");
}

/// Records the queue metrics of a drained queue.
pub fn record_queue(out: &mut Outcome, queue: &ServiceQueue) {
    let counters = queue.counters();
    let log = queue.dispatch_log();
    let waits: Vec<u64> = log.iter().map(|r| r.wait_ticks).collect();
    let mean = waits.iter().sum::<u64>() as f64 / waits.len().max(1) as f64;
    out.set("submit.wait_ticks_mean", mean, "ticks");
    out.set(
        "submit.wait_ticks_max",
        waits.iter().copied().max().unwrap_or(0) as f64,
        "ticks",
    );
    out.set("submit.high_water", counters.high_water as f64, "count");
    out.set("submit.shed", counters.shed as f64, "count");
    let aged: usize = counters.lanes.iter().map(|l| l.aged_promotions).sum();
    out.set("submit.aged_promotions", aged as f64, "count");
}

/// Span name → per-layer metric, for spans whose median self time is the
/// metric (milliseconds).
const LAYER_SPANS: [(&str, &str); 18] = [
    ("edif.parse", "edif.parse_ms"),
    ("lint.design", "lint.design_ms"),
    ("pipeline.clustered", "pipeline.clustered_ms"),
    ("pipeline.latched", "pipeline.latched_ms"),
    ("pipeline.timed", "pipeline.timed_ms"),
    ("pipeline.controlled", "pipeline.controlled_ms"),
    ("pipeline.assemble", "pipeline.assemble_ms"),
    ("sta.build", "sta.build_ms"),
    ("sta.arrival", "sta.arrival_ms"),
    ("mg.cycle_time", "mg.cycle_time_ms"),
    ("mg.is_safe", "mg.is_safe_ms"),
    ("mg.is_live", "mg.is_live_ms"),
    ("sim.compile", "sim.compile_ms"),
    ("verify.sync_ref", "verify.sync_ref_ms"),
    ("verify.schedule", "verify.schedule_ms"),
    ("verify.scalar", "verify.scalar_ms"),
    ("verify.packed_sync_ref", "verify.packed_sync_ref_ms"),
    ("verify.packed", "verify.packed_ms"),
];

/// Derives the per-layer time metrics from the recorded spans.
pub fn record_layer_times(out: &mut Outcome) {
    let times = trace::self_times_ms();
    for (span, metric) in LAYER_SPANS {
        if let Some(values) = times.get(span) {
            out.set(metric, median(values), "ms");
        }
    }
    if let (Some(one), Some(wide)) = (times.get("sim.lanes_1"), times.get("sim.lanes_64")) {
        let slope_ms = (median(wide) - median(one)) / (MAX_LANES - 1) as f64;
        out.set("sim.packed_lane_us", slope_ms * 1e3, "us");
    }
    if let Some(values) = times.get("submit.admit") {
        out.set("submit.admit_us", median(values) * 1e3, "us");
    }
}
