//! The verification hot-path benchmark: a sweep-shaped workload (protocol ×
//! margin points over a pipeline and the DLX, submitted to a
//! [`DesyncService`](desync_core::DesyncService) as first-class sweep requests with gate-level
//! verification on) that exercises exactly the paths the compiled-model /
//! runtime-parallel rework accelerates.
//!
//! [`run_verify_hot`] runs the sweep twice — once on a single worker (the
//! serial baseline) and once on [`SWEEP_THREADS`] workers — cross-checks
//! every per-point [`EquivalenceReport`](desync_core::EquivalenceReport) bit-for-bit between the two (and
//! against a fresh detached flow), then runs the same grid a third
//! time as a **packed campaign**: every point verified under
//! [`CAMPAIGN_LANES`] pseudo-random stimulus seeds at once through the
//! bit-parallel kernel, with probe lanes cross-checked bit-for-bit against
//! detached scalar flows. Throughput is reported on both axes — word-level
//! committed events per second (what the calendar queue actually executed)
//! and scalar-equivalent lane events per second (what those words are worth
//! in single-stimulus runs) — because conflating the two is exactly the
//! `events_per_sec` ambiguity schema `/2` had. The `verify_hot` bin prints
//! the report and serializes it to `BENCH_sim.json` (schema
//! `desync-verify-hot/3`, see [`VerifyHotReport::to_json`]) as a
//! perf-trajectory datapoint.

use crate::workloads::{bus_stimulus, dlx_program, dlx_stimulus};
use desync_circuits::{DlxConfig, LinearPipelineConfig};
use desync_core::{
    ArtifactKind, CampaignRequest, DesyncEngine, DesyncFlow, DesyncOptions, DesyncRuntime,
    EngineReport, Protocol, StoreConfig, SweepRequest,
};
use desync_netlist::{CellLibrary, NetId, Netlist};
use desync_sim::{PackedVectorSource, VectorSource, MAX_LANES};
use std::fmt;
use std::time::{Duration, Instant};

/// Captures compared per sweep point.
pub const VERIFY_CYCLES: usize = 48;

/// Matched-delay margins swept per protocol.
pub const MARGINS: [f64; 3] = [0.05, 0.1, 0.2];

/// Worker threads of the parallel sweep phase (the benchmark's fixed
/// comparison point; the speedup it buys depends on the host's cores).
pub const SWEEP_THREADS: usize = 4;

/// Stimulus lanes per packed campaign point: a full 64-lane word, so the
/// campaign phase measures the kernel at its native width.
pub const CAMPAIGN_LANES: usize = MAX_LANES;

/// Word events the packed campaign commits over the fixed grid and seeds.
/// The count is deterministic, so the packed kernel is gated on it (and on
/// [`CAMPAIGN_LANE_EVENTS`]) rather than on its host-dependent wall-clock
/// ratio to the scalar sweep.
pub const CAMPAIGN_WORD_EVENTS: usize = 5_144_426;

/// Scalar-equivalent lane events of the same campaign: about 5.84 live
/// lanes per committed word.
pub const CAMPAIGN_LANE_EVENTS: usize = 30_056_884;

/// One verified sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyHotPoint {
    /// Design name.
    pub design: String,
    /// Handshake protocol of the point.
    pub protocol: Protocol,
    /// Matched-delay margin of the point.
    pub margin: f64,
    /// Flow-equivalence verdict.
    pub equivalent: bool,
    /// Events committed by the desynchronized co-simulation.
    pub async_events: usize,
    /// Events committed by the synchronous reference (0 when the reference
    /// was served from the cache instead of simulated; in the serial
    /// baseline exactly the first point of each design simulates it).
    pub sync_events_simulated: usize,
}

/// The outcome of the verification hot-path sweep, see [`run_verify_hot`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyHotReport {
    /// One entry per sweep point, in submission order (from the
    /// deterministic serial baseline).
    pub points: Vec<VerifyHotPoint>,
    /// Wall time of the parallel sweep at [`SWEEP_THREADS`] workers.
    pub wall: Duration,
    /// Wall time of the single-worker baseline sweep.
    pub wall_serial: Duration,
    /// Worker threads of the parallel phase.
    pub threads: usize,
    /// Sweep points whose co-simulation stayed flow equivalent.
    pub equivalent_points: usize,
    /// Committed simulation events actually executed per sweep (async
    /// sides plus the sync references that missed the cache) — identical
    /// for both phases.
    pub events_simulated: usize,
    /// Compiled-model store hits of the parallel sweep: simulations that
    /// bound onto an already compiled topology.
    pub compile_reuses: usize,
    /// Timed stages of the parallel sweep served by re-binding matched
    /// delays from a cached margin-independent sizing analysis.
    pub rebinds: usize,
    /// Whether the parallel sweep, the serial sweep and a fresh detached
    /// flow all produced bit-identical reports.
    pub bit_identical_to_fresh: bool,
    /// The parallel engine's cache counters after its sweep.
    pub engine_report: EngineReport,
    /// Stimulus lanes carried per packed campaign point.
    pub campaign_lanes: usize,
    /// Wall time of the packed multi-seed campaign over the same grid at
    /// [`SWEEP_THREADS`] workers (fresh service, cold store — comparable
    /// to the scalar parallel phase).
    pub campaign_wall: Duration,
    /// Word-level events the packed campaign actually committed (one per
    /// calendar-queue commit, regardless of lane count).
    pub campaign_word_events: usize,
    /// Scalar-equivalent events of the campaign: each committed word
    /// credited once per lane whose payload it carried.
    pub campaign_lane_events: usize,
    /// Lane verdicts that stayed flow equivalent, summed over all campaign
    /// points (out of `points.len() * campaign_lanes`).
    pub campaign_equivalent_lanes: usize,
    /// Whether the probed campaign lanes were bit-identical to detached
    /// scalar flows run with the matching single-seed stimulus.
    pub bit_identical_packed: bool,
}

impl VerifyHotReport {
    /// Wall-time speedup of the parallel sweep over the serial baseline.
    pub fn speedup(&self) -> f64 {
        let parallel = self.wall.as_secs_f64();
        if parallel <= 0.0 {
            return 0.0;
        }
        self.wall_serial.as_secs_f64() / parallel
    }

    /// Committed events per second of parallel sweep wall time (aggregate
    /// throughput across workers). Scalar runs carry one lane per word, so
    /// this is simultaneously the sweep's word-level and lane-level rate.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.events_simulated as f64 / secs
    }

    /// Word-level committed events per second of campaign wall time: the
    /// rate at which the packed kernel's calendar queue actually retires
    /// events.
    pub fn campaign_word_events_per_sec(&self) -> f64 {
        let secs = self.campaign_wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.campaign_word_events as f64 / secs
    }

    /// Scalar-equivalent lane events per second of campaign wall time: what
    /// the campaign's committed words are worth in single-stimulus runs.
    pub fn campaign_lane_events_per_sec(&self) -> f64 {
        let secs = self.campaign_wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.campaign_lane_events as f64 / secs
    }

    /// Effective speedup of the packed kernel: the campaign's
    /// scalar-equivalent lane throughput over the scalar parallel sweep's
    /// event throughput, both measured at [`SWEEP_THREADS`] workers on a
    /// cold store.
    pub fn packed_speedup(&self) -> f64 {
        let scalar = self.events_per_sec();
        if scalar <= 0.0 {
            return 0.0;
        }
        self.campaign_lane_events_per_sec() / scalar
    }

    /// Serializes the headline numbers as a small JSON document (the
    /// workspace vendors a stub `serde`, so this is written by hand — the
    /// schema is part of the bench contract and documented in ROADMAP.md).
    pub fn to_json(&self) -> String {
        let sync = self.engine_report.kind(ArtifactKind::SyncRun);
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"desync-verify-hot/3\",\n",
                "  \"points\": {},\n",
                "  \"equivalent_points\": {},\n",
                "  \"verify_cycles\": {},\n",
                "  \"threads\": {},\n",
                "  \"wall_ms\": {:.3},\n",
                "  \"wall_ms_serial\": {:.3},\n",
                "  \"speedup\": {:.2},\n",
                "  \"events_simulated\": {},\n",
                "  \"events_per_sec\": {:.0},\n",
                "  \"compile_reuses\": {},\n",
                "  \"rebinds\": {},\n",
                "  \"sync_run_hits\": {},\n",
                "  \"sync_run_misses\": {},\n",
                "  \"bit_identical_to_fresh\": {},\n",
                "  \"campaign_lanes\": {},\n",
                "  \"campaign_wall_ms\": {:.3},\n",
                "  \"campaign_word_events\": {},\n",
                "  \"campaign_word_events_per_sec\": {:.0},\n",
                "  \"campaign_lane_events\": {},\n",
                "  \"campaign_lane_events_per_sec\": {:.0},\n",
                "  \"packed_speedup\": {:.2},\n",
                "  \"bit_identical_packed\": {}\n",
                "}}\n"
            ),
            self.points.len(),
            self.equivalent_points,
            VERIFY_CYCLES,
            self.threads,
            self.wall.as_secs_f64() * 1e3,
            self.wall_serial.as_secs_f64() * 1e3,
            self.speedup(),
            self.events_simulated,
            self.events_per_sec(),
            self.compile_reuses,
            self.rebinds,
            sync.hits,
            sync.misses,
            self.bit_identical_to_fresh,
            self.campaign_lanes,
            self.campaign_wall.as_secs_f64() * 1e3,
            self.campaign_word_events,
            self.campaign_word_events_per_sec(),
            self.campaign_lane_events,
            self.campaign_lane_events_per_sec(),
            self.packed_speedup(),
            self.bit_identical_packed,
        )
    }
}

impl fmt::Display for VerifyHotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify-hot sweep: {} points x {} cycles, wall {} ms at {} worker(s) \
             (serial baseline {} ms, {:.2}x)",
            self.points.len(),
            VERIFY_CYCLES,
            self.wall.as_millis(),
            self.threads,
            self.wall_serial.as_millis(),
            self.speedup(),
        )?;
        writeln!(
            f,
            "  events simulated: {} ({:.2} M events/s); {} compiled-model reuse(s), {} rebind(s)",
            self.events_simulated,
            self.events_per_sec() / 1e6,
            self.compile_reuses,
            self.rebinds,
        )?;
        writeln!(
            f,
            "  flow equivalent: {}/{} points; serial / parallel / fresh detached identical: {}",
            self.equivalent_points,
            self.points.len(),
            self.bit_identical_to_fresh
        )?;
        writeln!(
            f,
            "  packed campaign: {} lanes/point, wall {} ms; {} word events ({:.2} M/s), \
             {} lane events ({:.2} M/s), {:.1}x scalar; lane verdicts equivalent {}/{}; \
             probe lanes scalar-identical: {}",
            self.campaign_lanes,
            self.campaign_wall.as_millis(),
            self.campaign_word_events,
            self.campaign_word_events_per_sec() / 1e6,
            self.campaign_lane_events,
            self.campaign_lane_events_per_sec() / 1e6,
            self.packed_speedup(),
            self.campaign_equivalent_lanes,
            self.points.len() * self.campaign_lanes,
            self.bit_identical_packed,
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:<8} {:<16} margin {:>4.2}  equiv {:<5}  async events {:>6}  sync events {:>6}",
                p.design,
                p.protocol,
                p.margin,
                p.equivalent,
                p.async_events,
                p.sync_events_simulated
            )?;
        }
        write!(f, "{}", self.engine_report)
    }
}

/// The sweep workload: a balanced pipeline and the DLX, each verified under
/// every protocol × margin combination.
///
/// # Panics
///
/// Panics if generation fails (it cannot for these fixed configurations).
pub fn sweep_designs() -> Vec<(Netlist, VectorSource)> {
    let pipe = LinearPipelineConfig::balanced(6, 8, 4)
        .generate()
        .expect("pipeline generation");
    let pipe_stim = bus_stimulus(&pipe, "din", 8, 7);
    let dlx = DlxConfig::default().generate().expect("dlx generation");
    let dlx_stim = dlx_stimulus(&dlx, &dlx_program());
    vec![(pipe, pipe_stim), (dlx, dlx_stim)]
}

/// Builds the full protocol × margin request grid over `designs`.
fn sweep_requests<'a>(
    designs: &'a [(Netlist, VectorSource)],
    library: &'a CellLibrary,
) -> Vec<SweepRequest<'a>> {
    let mut requests = Vec::new();
    for (netlist, stim) in designs {
        for &protocol in Protocol::all() {
            for &margin in &MARGINS {
                let options = DesyncOptions::default()
                    .with_protocol(protocol)
                    .with_margin(margin);
                requests.push(SweepRequest::new(
                    netlist,
                    library,
                    options,
                    stim,
                    VERIFY_CYCLES,
                ));
            }
        }
    }
    requests
}

/// Distinct per-lane stimulus seeds of the campaign phase, derived from
/// one base constant.
fn campaign_seeds() -> Vec<u64> {
    (0..CAMPAIGN_LANES as u64)
        .map(|lane| 0xbead_cafe ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane))
        .collect()
}

/// Non-clock primary inputs of `netlist` — the nets the campaign's
/// pseudo-random lanes drive.
fn campaign_inputs(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&n| netlist.net(n).name != "clk")
        .collect()
}

/// One interleaved [`CAMPAIGN_LANES`]-seed packed stimulus per design.
fn campaign_stimuli(designs: &[(Netlist, VectorSource)]) -> Vec<PackedVectorSource> {
    let seeds = campaign_seeds();
    designs
        .iter()
        .map(|(netlist, _)| PackedVectorSource::pseudo_random(campaign_inputs(netlist), &seeds))
        .collect()
}

/// The campaign grid: the same protocol × margin points as
/// [`sweep_requests`], each under its design's packed multi-seed stimulus.
fn campaign_requests<'a>(
    designs: &'a [(Netlist, VectorSource)],
    stimuli: &'a [PackedVectorSource],
    library: &'a CellLibrary,
) -> Vec<CampaignRequest<'a>> {
    let mut requests = Vec::new();
    for ((netlist, _), stimulus) in designs.iter().zip(stimuli) {
        for &protocol in Protocol::all() {
            for &margin in &MARGINS {
                let options = DesyncOptions::default()
                    .with_protocol(protocol)
                    .with_margin(margin);
                requests.push(CampaignRequest::new(
                    netlist,
                    library,
                    options,
                    stimulus,
                    VERIFY_CYCLES,
                ));
            }
        }
    }
    requests
}

/// Runs the verification hot-path sweep twice — a single-worker baseline
/// and a [`SWEEP_THREADS`]-worker parallel phase, each through its own
/// service — cross-checks the reports bit for bit, then runs the grid a
/// third time as a [`CAMPAIGN_LANES`]-seed packed campaign with probe
/// lanes cross-checked against detached scalar flows.
///
/// # Panics
///
/// Panics if a flow or co-simulation fails on the stock workload.
pub fn run_verify_hot() -> VerifyHotReport {
    let library = CellLibrary::generic_90nm();
    let designs = sweep_designs();
    let requests = sweep_requests(&designs, &library);

    // Serial baseline: one worker. Points execute in submission order, so
    // the per-point sync-simulation attribution below is deterministic.
    let serial_service =
        desync_core::DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            StoreConfig::default(),
            DesyncRuntime::with_workers(1),
        ))
        .with_concurrency(1);
    let started = Instant::now();
    let serial = serial_service.run_sweep(&requests);
    let wall_serial = started.elapsed();
    assert_eq!(
        serial.report.failures, 0,
        "serial sweep must verify cleanly"
    );

    // Parallel phase: a fresh service (cold store) at SWEEP_THREADS workers.
    let parallel_service =
        desync_core::DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            StoreConfig::default(),
            DesyncRuntime::with_workers(SWEEP_THREADS),
        ))
        .with_concurrency(SWEEP_THREADS);
    let started = Instant::now();
    let parallel = parallel_service.run_sweep(&requests);
    let wall = started.elapsed();
    assert_eq!(
        parallel.report.failures, 0,
        "parallel sweep must verify cleanly"
    );

    // Bit-identity: every parallel report equals its serial twin, and one
    // probe point equals a fresh detached flow.
    let mut bit_identical = serial
        .results
        .iter()
        .zip(&parallel.results)
        .all(|(a, b)| a.as_ref().expect("serial ok") == b.as_ref().expect("parallel ok"));
    let probe = &requests[requests.len() / 2];
    let mut fresh_flow =
        DesyncFlow::new(probe.netlist, probe.library, probe.options).expect("options");
    fresh_flow.set_verification(probe.stimulus.clone(), probe.cycles);
    let fresh = fresh_flow.verified().expect("fresh co-simulation");
    bit_identical &= serial.results[requests.len() / 2]
        .as_ref()
        .expect("serial ok")
        == fresh;

    // Packed campaign phase: the same grid, every point verified under
    // CAMPAIGN_LANES pseudo-random seeds at once through the bit-parallel
    // kernel — on its own fresh service so the scalar phases' exact store
    // counters stay unperturbed.
    let stimuli = campaign_stimuli(&designs);
    let campaign_grid = campaign_requests(&designs, &stimuli, &library);
    let campaign_service =
        desync_core::DesyncService::with_engine(DesyncEngine::with_store_and_runtime(
            StoreConfig::default(),
            DesyncRuntime::with_workers(SWEEP_THREADS),
        ))
        .with_concurrency(SWEEP_THREADS);
    let started = Instant::now();
    let campaign = campaign_service.run_campaign(&campaign_grid);
    let campaign_wall = started.elapsed();
    assert_eq!(
        campaign.report.failures, 0,
        "packed campaign must verify cleanly"
    );
    let campaign_word_events = campaign.report.events_simulated();
    let campaign_lane_events = campaign.lane_events_simulated;
    assert!(
        campaign_lane_events >= campaign_word_events,
        "a committed word carries at least one lane"
    );
    let campaign_equivalent_lanes = campaign
        .results
        .iter()
        .map(|r| r.as_ref().expect("campaign ok").equivalent_lanes())
        .sum();

    // Packed/scalar bit-identity gate: probe the first point of each
    // design on three lanes (first, middle, last) against fresh detached
    // scalar flows driven by the matching single-seed stimulus.
    let seeds = campaign_seeds();
    let mut bit_identical_packed = true;
    for design_idx in 0..designs.len() {
        let probe_idx = design_idx * Protocol::all().len() * MARGINS.len();
        let probe = &campaign_grid[probe_idx];
        let packed_report = campaign.results[probe_idx].as_ref().expect("campaign ok");
        let nets = campaign_inputs(probe.netlist);
        for &lane in &[0, CAMPAIGN_LANES / 2, CAMPAIGN_LANES - 1] {
            let mut fresh_probe =
                DesyncFlow::new(probe.netlist, probe.library, probe.options).expect("options");
            fresh_probe.set_verification(
                VectorSource::pseudo_random(nets.clone(), seeds[lane]),
                probe.cycles,
            );
            let scalar = fresh_probe.verified().expect("fresh scalar co-simulation");
            bit_identical_packed &= packed_report.lane_equivalence[lane] == scalar.equivalence
                && packed_report.compared_cycles[lane] == scalar.compared_cycles;
        }
    }

    // Per-point rows from the deterministic serial pass: the first point of
    // each design simulated the sync reference, every other point reused it.
    let mut seen_designs: Vec<&str> = Vec::new();
    let mut points = Vec::new();
    let mut events_simulated = 0usize;
    for (request, result) in requests.iter().zip(&serial.results) {
        let report = result.as_ref().expect("serial ok");
        let design = request.netlist.name();
        let sync_events_simulated = if seen_designs.contains(&design) {
            0
        } else {
            seen_designs.push(design);
            report.sync_run.committed_events
        };
        events_simulated += report.async_run.committed_events + sync_events_simulated;
        points.push(VerifyHotPoint {
            design: design.to_string(),
            protocol: request.options.protocol,
            margin: request.options.matched_delay_margin,
            equivalent: report.is_equivalent(),
            async_events: report.async_run.committed_events,
            sync_events_simulated,
        });
    }
    assert_eq!(
        events_simulated,
        serial.report.events_simulated(),
        "per-point attribution must account for every committed event"
    );
    assert_eq!(
        events_simulated,
        parallel.report.events_simulated(),
        "the parallel sweep must simulate exactly the serial event count"
    );

    let engine_report = parallel_service.engine().report();
    VerifyHotReport {
        equivalent_points: points.iter().filter(|p| p.equivalent).count(),
        points,
        wall,
        wall_serial,
        threads: SWEEP_THREADS,
        events_simulated,
        compile_reuses: parallel.report.store.kind(ArtifactKind::Compiled).hits,
        rebinds: parallel.report.store.kind(ArtifactKind::Sizing).hits,
        bit_identical_to_fresh: bit_identical,
        engine_report,
        campaign_lanes: CAMPAIGN_LANES,
        campaign_wall,
        campaign_word_events,
        campaign_lane_events,
        campaign_equivalent_lanes,
        bit_identical_packed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reuses_shared_artifacts_and_matches_fresh_runs() {
        let report = run_verify_hot();
        assert_eq!(report.points.len(), 2 * 3 * MARGINS.len());
        // One sync simulation per design on the parallel engine; every
        // other point reused it (store hit or in-flight coalesce — the
        // counters are scheduling-independent).
        let engine = &report.engine_report;
        assert_eq!(engine.kind(ArtifactKind::SyncRun).misses, 2);
        assert_eq!(
            engine.kind(ArtifactKind::SyncRun).hits,
            report.points.len() - 2
        );
        assert!(report.bit_identical_to_fresh);
        // Compiled models: one async datapath + one sync model per design
        // compiled; every other simulation bound onto a shared model.
        assert_eq!(engine.kind(ArtifactKind::Compiled).misses, 4);
        assert!(report.compile_reuses >= report.points.len() - 2);
        // Sizing: one arrival analysis per design; the other margin points
        // re-bound matched delays from it.
        assert_eq!(engine.kind(ArtifactKind::Sizing).misses, 2);
        assert_eq!(report.rebinds, 2 * (MARGINS.len() - 1));
        // The pipeline points all verify; the DLX is equivalent under the
        // paper's decoupled protocols (the non-overlapping DLX
        // non-equivalence is a pre-existing, deterministic finding tracked
        // in ROADMAP.md and pinned by crates/bench/tests/dlx_verdict.rs).
        assert!(report
            .points
            .iter()
            .filter(|p| p.design != "dlx" || p.protocol == Protocol::FullyDecoupled)
            .all(|p| p.equivalent));
        assert!(report.events_simulated > 0);
        assert!(report.events_per_sec() > 0.0);
        // Campaign phase: full 64-lane words, probed lanes bit-identical
        // to detached scalar flows, and the pinned word and lane event
        // counts (the wall-clock ratio is only reported).
        assert_eq!(report.campaign_lanes, 64);
        assert!(report.bit_identical_packed);
        assert_eq!(report.campaign_word_events, CAMPAIGN_WORD_EVENTS);
        assert_eq!(report.campaign_lane_events, CAMPAIGN_LANE_EVENTS);
        // Every lane of every pipeline point verifies; the DLX keeps its
        // per-protocol verdict structure under randomized seeds too, so at
        // least the fully-decoupled DLX lanes are all equivalent.
        assert!(
            report.campaign_equivalent_lanes
                >= (report.points.len() - 2 * MARGINS.len()) * report.campaign_lanes,
            "campaign lane verdicts: {} equivalent",
            report.campaign_equivalent_lanes
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"desync-verify-hot/3\""));
        assert!(json.contains("\"wall_ms_serial\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"compile_reuses\""));
        assert!(json.contains("\"campaign_word_events_per_sec\""));
        assert!(json.contains("\"campaign_lane_events_per_sec\""));
        assert!(json.contains("\"packed_speedup\""));
        let text = report.to_string();
        assert!(text.contains("verify-hot sweep"), "{text}");
        assert!(text.contains("serial baseline"), "{text}");
        assert!(text.contains("packed campaign"), "{text}");
    }
}
