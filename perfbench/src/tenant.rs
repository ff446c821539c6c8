//! `tenant-mix`: the service under multi-tenant traffic.
//!
//! Set-up builds a dozen mid-size designs (pipelines, FIRs, random circuits
//! with 32–64 flip-flops, the DLX) plus one multi-driven design that lint
//! must reject, and draws a seeded traffic list: three tenants, one of
//! which sends about two thirds of the arrivals in bursts; all three
//! priority lanes; mostly design requests with Zipf-like design popularity
//! and drawn protocol / margin, a share of sweep points and a few small
//! campaign points; a few pre-cancelled and already-expired requests.
//!
//! Phase 1 is an open loop: one submitter thread sends the list on its
//! seeded Poisson schedule to a two-worker `ServiceQueue` with a depth
//! bound and reject-new admission, over a store bounded below the mix's
//! working set; one collector thread polls the outstanding tickets and
//! times each request from its due time. Phase 2 drains the same list,
//! staged under `pause` on an unbounded queue, and repeats on a fresh
//! engine until the run's time is spent.

use crate::probe::{self, ProbeInput};
use crate::stock::data_inputs;
use crate::trace;
use crate::util::{median, ms, peak_rss_mb, tail, Digest, Outcome, Rng};
use desync_circuits::random::RandomCircuitConfig;
use desync_circuits::{DlxConfig, FirConfig, LinearPipelineConfig};
use desync_core::{
    CampaignPointOutcome, CancelToken, DesyncDesign, DesyncEngine, DesyncError, DesyncFlow,
    DesyncOptions, DesyncRuntime, EquivalenceReport, Priority, Protocol, QueueCampaignRequest,
    QueueConfig, QueueRequest, QueueSweepRequest, ServiceQueue, StoreConfig, SubmitMeta,
    SubmitOptions, TenantId, TicketHandle,
};
use desync_netlist::edif::{from_edif, to_edif};
use desync_netlist::{CellKind, CellLibrary, Netlist};
use desync_sim::{PackedVectorSource, VectorSource};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Queue workers and sizing-pool workers.
const WORKERS: usize = 2;
/// Arrivals in the traffic list.
const REQUESTS: usize = 2_000;
/// The open loop's fixed arrival rate: about a tenth of the drain capacity
/// measured on the commit that introduced this benchmark. At half capacity
/// the median latency swung by more than 40% between runs on a 2-vCPU
/// host; at this rate it tracks service time.
const RATE_PER_S: f64 = 100.0;
/// Pending-depth bound of the phase-1 queue (reject-new admission).
const DEPTH: usize = 256;
/// Store capacity, in weight units: below the mix's working set, so the
/// store evicts and recomputes.
const STORE_CAPACITY: usize = 450_000;
/// Phase-1 latency limit; a request over it counts as failed.
const LATENCY_LIMIT_MS: f64 = 2_000.0;
/// Drain rounds measured at least.
const MIN_DRAINS: usize = 3;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Captures per sweep and campaign point.
const CYCLES: usize = 16;
/// Stimulus lanes per campaign point.
const CAMPAIGN_LANES: usize = 8;
/// Collector pause between passes over the outstanding tickets.
const POLL_INTERVAL: Duration = Duration::from_micros(200);
/// Completed phase-1 designs cross-checked against fresh detached flows.
const SAMPLE: usize = 8;

/// Drain dispatch-log digests pinned for the seeds the benchmark ships
/// (default and held-out).
const PINNED: [(u64, u64); 2] = [(1, 0xc9d8_0eaa_d271_cfb0), (2, 0x1c65_ba05_7ebd_690b)];

/// Exact composition of the traffic list; the rest are design requests.
const SWEEPS: usize = 240;
const CAMPAIGNS: usize = 30;
const POISONED: usize = 20;
const CANCELLED: usize = 20;
const EXPIRED: usize = 20;
/// Design requests with a margin never seen before: they always miss, grow
/// the store past its capacity and push the least recently used artifacts
/// out, so evictions and recomputes happen at a steady rate.
const ONE_OFF: usize = 100;
/// Requests of every class but plain design requests.
const MIXED: usize = SWEEPS + CAMPAIGNS + POISONED + CANCELLED + EXPIRED + ONE_OFF;
/// Share of arrival events that are a burst of the bursting tenant, and
/// the burst length: 0.25 × 6 / (0.25 × 6 + 0.75) = 2/3 of arrivals.
const BURST_SHARE: f64 = 0.25;
const BURST_LEN: usize = 6;
/// Spacing of the requests inside a burst, seconds.
const BURST_GAP_S: f64 = 0.000_5;

const MARGINS: [f64; 3] = [0.05, 0.1, 0.2];
/// Base margin of the one-off requests (each adds a unique offset).
const ONE_OFF_MARGIN: f64 = 0.3;

/// One design of the mix with its EDIF text and stimuli.
struct MixDesign {
    netlist: Arc<Netlist>,
    edif: String,
    stimulus: VectorSource,
    packed: PackedVectorSource,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Design,
    Sweep,
    Campaign,
}

/// How a request resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Resolution {
    Done,
    Cancelled,
    Expired,
    Rejected,
    Shed,
    Failed(String),
}

/// One arrival of the traffic list.
#[derive(Debug, Clone)]
struct Arrival {
    at_s: f64,
    design: usize,
    options: DesyncOptions,
    kind: Kind,
    meta: SubmitMeta,
    expect: Resolution,
}

/// A multi-driven design: lint (NL001) must turn it away at admission.
fn poisoned_design() -> Netlist {
    let mut n = Netlist::new("poisoned");
    let clk = n.add_input("clk");
    let a = n.add_input("a");
    let q0 = n.add_net("q0");
    let w = n.add_net("w");
    let y = n.add_output("y");
    n.add_dff("r0", a, clk, q0).expect("poisoned dff");
    n.add_gate("g0", CellKind::Not, &[q0], w)
        .expect("poisoned gate");
    n.add_gate("dup", CellKind::Buf, &[a], w)
        .expect("poisoned second driver");
    n.add_dff("r1", w, clk, y).expect("poisoned dff");
    n
}

/// The clean designs, most popular first, then the poisoned one (last).
/// The heaviest designs are the most popular, so what the bounded store
/// evicts and recomputes is mostly cheap.
fn designs() -> Vec<MixDesign> {
    let random = |flip_flops, gates, seed| {
        RandomCircuitConfig {
            inputs: 8,
            flip_flops,
            gates,
            outputs: 8,
            seed,
        }
        .generate()
        .expect("random circuit generation")
    };
    let netlists = vec![
        DlxConfig::default().generate(),
        Ok(random(64, 192, 13)),
        LinearPipelineConfig::balanced(8, 16, 4).generate(),
        Ok(random(48, 144, 12)),
        FirConfig::with_taps(6, 8).generate(),
        LinearPipelineConfig::unbalanced(4, 16, 3, 2).generate(),
        Ok(random(32, 96, 11)),
        LinearPipelineConfig::unbalanced(6, 8, 2, 3).generate(),
        LinearPipelineConfig::balanced(6, 8, 4).generate(),
        FirConfig::with_taps(3, 12).generate(),
        FirConfig::with_taps(4, 8).generate(),
        LinearPipelineConfig::balanced(4, 8, 2).generate(),
        Ok(poisoned_design()),
    ];
    // Fixed stimuli: the seed drives the traffic only, so every seed asks
    // for the same simulations and stores artifacts of the same weights.
    let mut rng = Rng::new(0, 0x5717);
    netlists
        .into_iter()
        .map(|netlist| {
            let netlist = netlist.expect("mix design generation");
            let inputs = data_inputs(&netlist);
            let lanes: Vec<u64> = (0..CAMPAIGN_LANES).map(|_| rng.next_u64()).collect();
            MixDesign {
                edif: to_edif(&netlist),
                stimulus: VectorSource::pseudo_random(inputs.clone(), rng.next_u64()),
                packed: PackedVectorSource::pseudo_random(inputs, &lanes),
                netlist: Arc::new(netlist),
            }
        })
        .collect()
}

/// Chunk `chunk` of the seeded traffic stream over `clean` clean designs
/// (the poisoned design is index `clean`).
///
/// The work is a fixed multiset, so every seed asks for the same work:
/// each request class is split over the designs by Zipf-like quotas
/// (weight 1/rank, most popular first), and each design's requests cycle
/// through the nine protocol × margin options. The seed shuffles that
/// multiset and draws the tenants, priority lanes and arrival times, anew
/// for every chunk.
fn traffic(seed: u64, clean: usize, chunk: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x7e4a ^ chunk << 16);
    let weights: Vec<f64> = (0..clean).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let designs_for = MIXED;
    let mut plan: Vec<(Kind, Resolution, usize, usize)> = Vec::with_capacity(REQUESTS);
    for (kind, expect, count) in [
        (Kind::Sweep, Resolution::Done, SWEEPS),
        (Kind::Campaign, Resolution::Done, CAMPAIGNS),
        (Kind::Design, Resolution::Cancelled, CANCELLED),
        (Kind::Design, Resolution::Expired, EXPIRED),
        (Kind::Design, Resolution::Done, REQUESTS - designs_for),
    ] {
        // Largest-remainder split of `count` over the Zipf weights.
        let exact: Vec<f64> = weights.iter().map(|w| count as f64 * w / total).collect();
        let mut quota: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut order: Vec<usize> = (0..clean).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let short = count - quota.iter().sum::<usize>();
        for &d in &order[..short] {
            quota[d] += 1;
        }
        for (design, &n) in quota.iter().enumerate() {
            plan.extend((0..n).map(|k| (kind, expect.clone(), design, k % 9)));
        }
    }
    plan.extend((0..POISONED).map(|k| (Kind::Design, Resolution::Rejected, clean, k % 9)));
    plan.extend((0..ONE_OFF).map(|k| (Kind::Design, Resolution::Done, k % clean, 9 + k)));
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.below(i + 1));
    }

    // Poisson arrival events: a burst of the bursting tenant, or one
    // request of one of the other two.
    let per_event = BURST_SHARE * BURST_LEN as f64 + (1.0 - BURST_SHARE);
    let mean_gap_s = per_event / RATE_PER_S;
    let mut arrivals = Vec::with_capacity(REQUESTS);
    let mut clock = 0.0;
    let mut plan = plan.into_iter().peekable();
    while plan.peek().is_some() {
        clock += rng.exp(mean_gap_s);
        let (tenant, count) = if rng.unit() < BURST_SHARE {
            (1, BURST_LEN)
        } else {
            (2 + rng.below(2) as u32, 1)
        };
        for k in 0..count {
            let Some((kind, expect, design, option)) = plan.next() else {
                break;
            };
            let priority = match rng.below(20) {
                0..=3 => Priority::High,
                4..=14 => Priority::Normal,
                _ => Priority::Low,
            };
            let margin = match option.checked_sub(9) {
                Some(serial) => ONE_OFF_MARGIN + (chunk as usize * ONE_OFF + serial) as f64 * 1e-6,
                None => MARGINS[option % 3],
            };
            let options = DesyncOptions::default()
                .with_protocol(Protocol::all()[option / 3 % 3])
                .with_margin(margin);
            arrivals.push(Arrival {
                at_s: clock + k as f64 * BURST_GAP_S,
                design,
                options,
                kind,
                meta: SubmitMeta::new()
                    .with_tenant(TenantId::new(tenant))
                    .with_priority(priority),
                expect,
            });
        }
    }
    arrivals
}

/// A ticket of any request kind.
enum Ticket {
    Design(TicketHandle<DesyncDesign>),
    Sweep(TicketHandle<EquivalenceReport>),
    Campaign(TicketHandle<CampaignPointOutcome>),
}

impl Ticket {
    fn poll(&self) -> bool {
        match self {
            Ticket::Design(t) => t.poll(),
            Ticket::Sweep(t) => t.poll(),
            Ticket::Campaign(t) => t.poll(),
        }
    }

    /// Waits for the outcome; the design of a completed design request is
    /// returned when `keep` is set.
    fn finish(self, keep: bool) -> (Resolution, Option<DesyncDesign>) {
        let (result, design) = match self {
            Ticket::Design(t) => match t.wait() {
                Ok(design) => (Ok(()), keep.then_some(design)),
                Err(e) => (Err(e), None),
            },
            Ticket::Sweep(t) => (t.wait().map(drop), None),
            Ticket::Campaign(t) => (t.wait().map(drop), None),
        };
        let resolution = match result {
            Ok(()) => Resolution::Done,
            Err(DesyncError::Cancelled) => Resolution::Cancelled,
            Err(DesyncError::DeadlineExceeded) => Resolution::Expired,
            Err(DesyncError::LintRejected(_)) => Resolution::Rejected,
            Err(DesyncError::QueueFull { .. }) => Resolution::Shed,
            Err(e) => Resolution::Failed(e.to_string()),
        };
        (resolution, design)
    }
}

fn submit(
    queue: &ServiceQueue,
    arrival: &Arrival,
    designs: &[MixDesign],
    library: &Arc<CellLibrary>,
) -> Ticket {
    let design = &designs[arrival.design];
    let netlist = Arc::clone(&design.netlist);
    let library = Arc::clone(library);
    let mut options = SubmitOptions::new().with_meta(arrival.meta);
    match arrival.expect {
        Resolution::Cancelled => {
            let token = CancelToken::new();
            token.cancel();
            options = options.with_cancel(token);
        }
        Resolution::Expired => options = options.with_deadline(Duration::ZERO),
        _ => {}
    }
    match arrival.kind {
        Kind::Design => Ticket::Design(queue.submit(
            QueueRequest::new(netlist, library, arrival.options),
            options,
        )),
        Kind::Sweep => Ticket::Sweep(queue.submit_sweep(
            QueueSweepRequest::new(
                netlist,
                library,
                arrival.options,
                design.stimulus.clone(),
                CYCLES,
            ),
            options,
        )),
        Kind::Campaign => Ticket::Campaign(queue.submit_campaign(
            QueueCampaignRequest::new(
                netlist,
                library,
                arrival.options,
                design.packed.clone(),
                CYCLES,
            ),
            options,
        )),
    }
}

fn engine() -> Arc<DesyncEngine> {
    Arc::new(DesyncEngine::with_store_and_runtime(
        StoreConfig::default().with_capacity(STORE_CAPACITY),
        DesyncRuntime::with_workers(WORKERS),
    ))
}

/// What the open loop measured.
struct OpenLoop {
    /// Per arrival: latency from due time (ms) and resolution.
    resolved: Vec<(f64, Resolution)>,
    /// Designs of the sampled completed design requests, by arrival index.
    sampled: Vec<(usize, DesyncDesign)>,
    lags_ms: Vec<f64>,
    admits_us: Vec<f64>,
    polls_us: Vec<f64>,
    queue: ServiceQueue,
}

/// Phase 1: the seeded Poisson schedule into a bounded reject-new queue
/// over `engine`.
fn open_loop(
    engine: &Arc<DesyncEngine>,
    list: &[Arrival],
    designs: &[MixDesign],
    library: &Arc<CellLibrary>,
    sample: &[usize],
) -> OpenLoop {
    let queue = ServiceQueue::new(
        Arc::clone(engine),
        QueueConfig::with_workers(WORKERS).with_depth(DEPTH),
    );
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let start = Instant::now() + Duration::from_millis(10);
    let queue_ref = &queue;
    let (lags_ms, admits_us, resolved, sampled, polls_us) = thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut lags = Vec::with_capacity(list.len());
            let mut admits = Vec::with_capacity(list.len());
            for (i, arrival) in list.iter().enumerate() {
                let due = start + Duration::from_secs_f64(arrival.at_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let sent = Instant::now();
                lags.push(ms(sent.saturating_duration_since(due)));
                let ticket = trace::span("submit.admit", i as u64, || {
                    submit(queue_ref, arrival, designs, library)
                });
                admits.push(sent.elapsed().as_secs_f64() * 1e6);
                tx.send((i, due, ticket))
                    .expect("collector outlives submitter");
            }
            (lags, admits)
        });
        let collector = scope.spawn(move || {
            let mut resolved: Vec<Option<(f64, Resolution)>> = vec![None; list.len()];
            let mut sampled = Vec::new();
            let mut outstanding: Vec<(usize, Instant, Ticket)> = Vec::new();
            let mut polls = Vec::new();
            let mut sending = true;
            let mut last_pass = Instant::now();
            while sending || !outstanding.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(entry) => outstanding.push(entry),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            sending = false;
                            break;
                        }
                    }
                }
                reap(&mut outstanding, |index, due, ticket| {
                    let now = Instant::now();
                    let (resolution, design) = ticket.finish(sample.contains(&index));
                    resolved[index] = Some((ms(now.saturating_duration_since(due)), resolution));
                    if let Some(design) = design {
                        sampled.push((index, design));
                    }
                });
                thread::sleep(POLL_INTERVAL);
                polls.push(last_pass.elapsed().as_secs_f64() * 1e6);
                last_pass = Instant::now();
            }
            let resolved: Vec<(f64, Resolution)> = resolved
                .into_iter()
                .map(|r| r.expect("every arrival resolves"))
                .collect();
            (resolved, sampled, polls)
        });
        let (lags, admits) = submitter.join().expect("submitter thread");
        let (resolved, sampled, polls) = collector.join().expect("collector thread");
        (lags, admits, resolved, sampled, polls)
    });
    OpenLoop {
        resolved,
        sampled,
        lags_ms,
        admits_us,
        polls_us,
        queue,
    }
}

/// Resolves every ready ticket of `outstanding` through `done` (index, due
/// time, ticket) and keeps the rest.
fn reap(
    outstanding: &mut Vec<(usize, Instant, Ticket)>,
    mut done: impl FnMut(usize, Instant, Ticket),
) {
    let mut i = 0;
    while i < outstanding.len() {
        if outstanding[i].2.poll() {
            let (index, due, ticket) = outstanding.swap_remove(i);
            done(index, due, ticket);
        } else {
            i += 1;
        }
    }
}

/// What one drain round measured.
struct Drain {
    wall_s: f64,
    resolutions: Vec<Resolution>,
    dispatch_digest: u64,
}

/// Phase 2: the whole list staged under pause on an unbounded queue over
/// `engine`, then released.
fn drain_on(
    engine: Arc<DesyncEngine>,
    list: &[Arrival],
    designs: &[MixDesign],
    library: &Arc<CellLibrary>,
) -> Drain {
    let queue = ServiceQueue::new(engine, QueueConfig::with_workers(WORKERS));
    queue.pause();
    let tickets: Vec<Ticket> = list
        .iter()
        .map(|arrival| submit(&queue, arrival, designs, library))
        .collect();
    let started = Instant::now();
    queue.resume();
    let resolutions = tickets.into_iter().map(|t| t.finish(false).0).collect();
    let wall_s = started.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    for record in queue.dispatch_log() {
        let priority = match record.priority {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        };
        digest
            .word(record.seq)
            .word(u64::from(record.tenant.id()))
            .word(priority)
            .word(record.wait_ticks)
            .word(u64::from(record.aged));
    }
    Drain {
        wall_s,
        resolutions,
        dispatch_digest: digest.finish(),
    }
}

/// Runs the workload: one open-loop phase, then drain rounds until
/// `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let library = Arc::new(CellLibrary::generic_90nm());

    let mut setup = Vec::new();
    let mut mix = Vec::new();
    let mut warm = Vec::new();
    let mut list = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        mix = designs();
        warm = traffic(seed, mix.len() - 1, 0);
        list = traffic(seed, mix.len() - 1, 1);
        setup.push(started.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup), "s");
    let mut rng = Rng::new(seed, 0x5a3b);
    let done: Vec<usize> = (0..list.len())
        .filter(|&i| list[i].kind == Kind::Design && list[i].expect == Resolution::Done)
        .collect();
    let sample: Vec<usize> = (0..SAMPLE).map(|_| done[rng.below(done.len())]).collect();

    // One engine serves both phases. An untimed chunk of traffic warms its
    // bounded store first, so both phases measure steady-state traffic
    // (hits, rebinds, simulations, evictions and recomputes) rather than
    // the cold start, whose order-dependent coalescing waits swamp it.
    // Every phase and round takes a fresh chunk of the stream: replaying
    // one order would lock the bounded store into that order's particular
    // eviction cycle.
    let engine = engine();
    drain_on(Arc::clone(&engine), &warm, &mix, &library);
    let window = Instant::now();
    let phase1 = open_loop(&engine, &list, &mix, &library, &sample);
    let mut latencies = Vec::with_capacity(list.len());
    let mut shed = 0;
    for (i, (latency, resolution)) in phase1.resolved.iter().enumerate() {
        out.attempted += 1;
        let wrong = *resolution != list[i].expect;
        let late = *latency > LATENCY_LIMIT_MS;
        if *resolution == Resolution::Shed {
            shed += 1;
        } else {
            latencies.push(*latency);
        }
        if wrong || late {
            out.failed += 1;
            if out.problems.len() < 10 {
                out.problem(format!(
                    "arrival {i}: {resolution:?} after {latency:.1} ms, expected {:?}",
                    list[i].expect
                ));
            }
        }
    }

    let mut drains = Vec::new();
    while drains.len() < MIN_DRAINS || window.elapsed().as_secs_f64() < seconds {
        let chunk = traffic(seed, mix.len() - 1, 2 + drains.len() as u64);
        let round = trace::span("op.drain", drains.len() as u64, || {
            drain_on(Arc::clone(&engine), &chunk, &mix, &library)
        });
        for (i, resolution) in round.resolutions.iter().enumerate() {
            out.attempted += 1;
            if *resolution != chunk[i].expect {
                out.failed += 1;
                if out.problems.len() < 10 {
                    out.problem(format!(
                        "drain {}: arrival {i}: {resolution:?}, expected {:?}",
                        drains.len(),
                        chunk[i].expect
                    ));
                }
            }
        }
        drains.push(round);
    }

    // Completed designs equal fresh detached flows.
    for (index, design) in &phase1.sampled {
        let arrival = &list[*index];
        let netlist = &mix[arrival.design].netlist;
        let fresh =
            DesyncFlow::new(netlist, &library, arrival.options).and_then(|mut f| f.design());
        out.check(fresh.as_ref().is_ok_and(|f| f == design), || {
            format!("arrival {index}: served design differs from a fresh flow")
        });
    }
    // The first drain round's dispatch log is a pure function of its chunk.
    let digest = drains[0].dispatch_digest;
    if let Some(&(_, pinned)) = PINNED.iter().find(|(s, _)| *s == seed) {
        out.check(digest == pinned, || {
            format!("dispatch digest {digest:#018x} != pinned {pinned:#018x}")
        });
    }

    let (p50, tail_ms, pct) = if latencies.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let (t, p) = tail(&latencies);
        (median(&latencies), t, p)
    };
    let rates: Vec<f64> = drains
        .iter()
        .map(|d| d.resolutions.len() as f64 / d.wall_s)
        .collect();
    let drain_rps = median(&rates);
    out.set("p50_ms", p50, "ms");
    out.set("throughput_per_s", drain_rps, "1/s");
    let rejected = phase1
        .resolved
        .iter()
        .filter(|(_, r)| *r == Resolution::Rejected)
        .count();
    out.set("lint.rejections", rejected as f64, "count");
    println!(
        "p50_ms = {p50} ms; tail_ms = {tail_ms} ms at p{pct:.1} of {} samples; drain_rps = \
         {drain_rps} 1/s over {} rounds; shed {shed}; latency limit {LATENCY_LIMIT_MS} ms",
        latencies.len(),
        drains.len()
    );
    println!(
        "gen.lag_ms = {} ms median, {} ms max; gen.poll_us = {} us median; \
         submit.admit_us = {} us median; drain dispatch digest {digest:#018x}",
        median(&phase1.lags_ms),
        phase1.lags_ms.iter().copied().fold(0.0, f64::max),
        median(&phase1.polls_us),
        median(&phase1.admits_us),
    );
    probe::record_store(&mut out, &engine.report());
    probe::record_queue(&mut out, &phase1.queue);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");

    if trace::enabled() {
        traced_extras(&mix, &library, &mut out);
    }
    out
}

/// Traced-run extras: per-layer probes of every clean design of the mix.
fn traced_extras(mix: &[MixDesign], library: &CellLibrary, out: &mut Outcome) {
    let mut counts = probe::ProbeCounts::default();
    for (i, design) in mix[..mix.len() - 1].iter().enumerate() {
        let op = (1 << 40) + i as u64;
        let parsed = trace::span("edif.parse", op, || from_edif(&design.edif));
        out.check(parsed.is_ok_and(|n| n == *design.netlist), || {
            format!("{} does not round-trip through EDIF", design.netlist.name())
        });
        let input = ProbeInput {
            netlist: &design.netlist,
            options: DesyncOptions::default(),
            stimulus: design.stimulus.clone(),
            packed: design.packed.clone(),
            cycles: CYCLES,
        };
        match probe::probe(&input, library, op) {
            Ok(c) => counts.add(&c),
            Err(e) => out.problem(format!("{} probe: {e}", design.netlist.name())),
        }
    }
    counts.record(out);
}
