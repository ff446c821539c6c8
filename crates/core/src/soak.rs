//! The deterministic multi-tenant soak harness: replay recorded service
//! traffic through the fair-scheduling queue and assert the robustness
//! invariants that every future service change must keep.
//!
//! A [`TrafficRecording`] is a list of [`SoakEvent`]s — who submitted
//! (tenant), how urgent (priority lane), what kind of work (design
//! construction or verification sweep), against which of the deterministic
//! [`soak_design`] netlists, and whether the client cancelled the request
//! or let its deadline expire. The arrival order is the list order.
//! Recordings have a line-oriented text format ([`TrafficRecording::parse`]
//! / [`TrafficRecording::to_text`]) so they can be checked into a
//! repository and replayed forever, and a seeded generator
//! ([`TrafficRecording::synthetic`]) for producing new ones.
//!
//! [`run_soak`] replays a recording through a fresh engine + queue:
//! the queue is paused, every event is submitted with its tag (cancel
//! events fire their token while still queued; deadline events carry an
//! already-expired deadline), then the queue resumes and the harness waits
//! for every ticket. The result is a [`SoakReport`] capturing the complete
//! end-state: one [`SoakResolution`] per event, the scheduler's dispatch
//! log, and the queue counters with their per-tenant/per-lane blocks.
//!
//! Because the batch is staged before any worker runs, the report is a
//! pure function of (recording, config) — **bit-identical across worker
//! counts**. Replaying under seeded fault plans (install a
//! `failpoints::FaultScope` around `run_soak` with
//! tags from [`soak_tags`]) keeps that property: fault actions are keyed
//! by site and netlist tag, not by timing. The `soak_bench` binary in
//! `desync-bench` is the standing CI gate built from exactly this loop.
//!
//! [`SoakReport::check_invariants`] asserts the robustness contract:
//!
//! * no wedged in-flight registry (every store key unwound, even when
//!   fault plans panic leaders mid-publication),
//! * no starvation past the aging bound: every dispatch waited at most
//!   `aging_bound + high_water` ticks,
//! * bounded per-tenant backlog: no tenant's queue high-water exceeds its
//!   quota,
//! * conservation: every event resolved, and admitted + shed = arrivals.

use crate::engine::DesyncEngine;
use crate::error::DesyncError;
use crate::flow::DesyncDesign;
use crate::options::DesyncOptions;
use crate::submit::{
    AdmissionPolicy, DispatchRecord, Priority, QueueConfig, QueueCounters, QueueRequest,
    QueueSweepRequest, ServiceQueue, SubmitMeta, SubmitOptions, TenantId,
};
use crate::verify::EquivalenceReport;
use desync_netlist::{CellKind, CellLibrary, Netlist};
use desync_sim::VectorSource;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How long [`run_soak`] waits on any single ticket before declaring the
/// queue wedged. Generous: a healthy replay resolves every ticket in
/// milliseconds; only a genuine hang (the bug class the harness exists to
/// catch) reaches this.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(120);

/// The request kind of one soak event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoakKind {
    /// A design-construction request ([`ServiceQueue::submit`]).
    Design,
    /// A verification sweep point ([`ServiceQueue::submit_sweep`]) with a
    /// deterministic pseudo-random stimulus derived from the design index.
    Sweep,
}

impl SoakKind {
    const fn name(self) -> &'static str {
        match self {
            SoakKind::Design => "design",
            SoakKind::Sweep => "sweep",
        }
    }
}

/// One recorded arrival: who, how urgent, what, and the client-side events
/// (cancellation / expired deadline) riding on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SoakEvent {
    /// The submitting tenant's numeric id.
    pub tenant: u32,
    /// The priority lane the request submits under.
    pub priority: Priority,
    /// Design construction or verification sweep.
    pub kind: SoakKind,
    /// Index into the deterministic [`soak_design`] family.
    pub design: usize,
    /// Whether the client cancels the request immediately after
    /// submission (while it is still queued).
    pub cancel: bool,
    /// Whether the request carries an already-expired deadline, resolving
    /// [`DesyncError::DeadlineExceeded`] at pickup.
    pub expired_deadline: bool,
}

/// A replayable recording of multi-tenant service traffic, in arrival
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficRecording {
    /// The arrivals, in submission order.
    pub events: Vec<SoakEvent>,
}

impl TrafficRecording {
    /// Parses the line-oriented recording format. Each non-empty,
    /// non-`#`-comment line is one event:
    ///
    /// ```text
    /// <tenant> <low|normal|high> <design|sweep> <design-index> [cancel] [expire]
    /// ```
    ///
    /// # Errors
    ///
    /// A message naming the offending line and token.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let context = |what: &str| format!("line {}: {what}", number + 1);
            let tenant: u32 = tokens
                .next()
                .ok_or_else(|| context("missing tenant"))?
                .parse()
                .map_err(|_| context("tenant must be a u32"))?;
            let priority = match tokens.next().ok_or_else(|| context("missing priority"))? {
                "low" => Priority::Low,
                "normal" => Priority::Normal,
                "high" => Priority::High,
                other => return Err(context(&format!("unknown priority '{other}'"))),
            };
            let kind = match tokens.next().ok_or_else(|| context("missing kind"))? {
                "design" => SoakKind::Design,
                "sweep" => SoakKind::Sweep,
                other => return Err(context(&format!("unknown kind '{other}'"))),
            };
            let design: usize = tokens
                .next()
                .ok_or_else(|| context("missing design index"))?
                .parse()
                .map_err(|_| context("design index must be a usize"))?;
            let mut cancel = false;
            let mut expired_deadline = false;
            for flag in tokens {
                match flag {
                    "cancel" => cancel = true,
                    "expire" => expired_deadline = true,
                    other => return Err(context(&format!("unknown flag '{other}'"))),
                }
            }
            events.push(SoakEvent {
                tenant,
                priority,
                kind,
                design,
                cancel,
                expired_deadline,
            });
        }
        Ok(Self { events })
    }

    /// Renders the recording in the format [`TrafficRecording::parse`]
    /// reads (round-trips exactly).
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# desync soak traffic recording\n\
             # <tenant> <low|normal|high> <design|sweep> <design-index> [cancel] [expire]\n",
        );
        for event in &self.events {
            out.push_str(&format!(
                "{} {} {} {}",
                event.tenant,
                event.priority.name(),
                event.kind.name(),
                event.design
            ));
            if event.cancel {
                out.push_str(" cancel");
            }
            if event.expired_deadline {
                out.push_str(" expire");
            }
            out.push('\n');
        }
        out
    }

    /// Generates a deterministic recording from `seed`: tenant 0 bursts
    /// (roughly 2 of every 3 arrivals), the other `tenants - 1` tenants
    /// trickle; mostly normal-priority design requests with a sprinkle of
    /// low/high lanes, sweep points, cancellations and expired deadlines.
    pub fn synthetic(seed: u64, events: usize, tenants: u32, designs: usize) -> Self {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let tenants = tenants.max(1);
        let designs = designs.max(1);
        let events = (0..events)
            .map(|_| {
                let tenant = if tenants == 1 || next() % 3 < 2 {
                    0
                } else {
                    1 + (next() % (tenants as u64 - 1)) as u32
                };
                let priority = match next() % 6 {
                    0 => Priority::Low,
                    5 => Priority::High,
                    _ => Priority::Normal,
                };
                let kind = if next() % 4 == 0 {
                    SoakKind::Sweep
                } else {
                    SoakKind::Design
                };
                let design = (next() % designs as u64) as usize;
                let roll = next() % 16;
                SoakEvent {
                    tenant,
                    priority,
                    kind,
                    design,
                    cancel: roll == 0,
                    expired_deadline: roll == 1,
                }
            })
            .collect();
        Self { events }
    }
}

/// The deterministic netlist family the soak harness replays against: a
/// linear flip-flop pipeline whose depth grows with `index`, so every
/// index has a distinct structural hash (usable as a fault-plan tag, see
/// [`soak_tags`]) while staying cheap to desynchronize.
pub fn soak_design(index: usize) -> Netlist {
    let depth = 2 + index;
    let mut n = Netlist::new(format!("soak_d{index}"));
    let clk = n.add_input("clk");
    let mut data = n.add_input("a");
    for stage in 0..depth {
        let q = if stage + 1 == depth {
            n.add_output(format!("q{stage}"))
        } else {
            n.add_net(format!("q{stage}"))
        };
        n.add_dff(format!("r{stage}"), data, clk, q)
            .expect("soak pipeline register");
        if stage + 1 == depth {
            data = q;
        } else {
            let w = n.add_net(format!("w{stage}"));
            let kind = if stage % 2 == 0 {
                CellKind::Not
            } else {
                CellKind::Buf
            };
            n.add_gate(format!("g{stage}"), kind, &[q], w)
                .expect("soak pipeline gate");
            data = w;
        }
    }
    n
}

/// The structural hashes of the distinct designs a recording touches, in
/// order of first appearance — the tags a seeded
/// `failpoints::FaultPlan` should target so fault
/// injection hits real replayed traffic.
pub fn soak_tags(recording: &TrafficRecording) -> Vec<u64> {
    let mut indices: Vec<usize> = Vec::new();
    for event in &recording.events {
        if !indices.contains(&event.design) {
            indices.push(event.design);
        }
    }
    indices
        .into_iter()
        .map(|i| soak_design(i).structural_hash())
        .collect()
}

/// Configuration of one soak replay. Admission is always
/// [`AdmissionPolicy::RejectNew`]: the replay stages the whole recording
/// under [`ServiceQueue::pause`], so a blocking policy would deadlock the
/// (single) replaying submitter against a paused queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Worker threads draining the replayed queue.
    pub workers: usize,
    /// The DRR quantum (see [`QueueConfig::quantum`]).
    pub quantum: usize,
    /// The anti-starvation aging bound, in dispatch ticks.
    pub aging_bound: usize,
    /// Global queue depth bound (`None` = unbounded).
    pub depth: Option<usize>,
    /// Per-tenant pending quota (`None` = unquotaed).
    pub tenant_quota: Option<usize>,
    /// Captures compared per register for sweep events.
    pub sweep_cycles: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            quantum: 2,
            aging_bound: 8,
            depth: None,
            tenant_quota: None,
            sweep_cycles: 8,
        }
    }
}

impl SoakConfig {
    /// Returns the config with a worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns the config with a per-tenant pending quota.
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// The queue configuration this soak config expands to.
    pub fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            workers: self.workers,
            depth: self.depth,
            admission: AdmissionPolicy::RejectNew,
            quantum: self.quantum,
            aging_bound: Some(self.aging_bound),
            tenant_quota: self.tenant_quota,
        }
    }
}

/// How one soak event resolved. Comparable across replays: two runs of
/// the same recording under the same config and fault plans must produce
/// equal resolution vectors, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum SoakResolution {
    /// A design request completed. Boxed: a full design (and a sweep's
    /// equivalence report) dwarfs the error variant, and a recording
    /// yields one resolution per event.
    Design(Box<DesyncDesign>),
    /// A sweep point completed.
    Sweep(Box<EquivalenceReport>),
    /// The request resolved with a typed error (shed, cancelled, expired,
    /// fault-injected, panic-contained, …).
    Failed(DesyncError),
}

/// The complete end-state of one soak replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// One resolution per recorded event, in arrival order.
    pub resolutions: Vec<SoakResolution>,
    /// The scheduler's dispatch log (admitted requests only).
    pub dispatch_log: Vec<DispatchRecord>,
    /// The queue counters at the end of the replay, including the
    /// per-tenant and per-lane blocks.
    pub counters: QueueCounters,
    /// In-flight store registrations left after the replay — must be zero
    /// (a nonzero value means a leader wedged a key).
    pub inflight_after: usize,
}

impl SoakReport {
    /// Events that resolved with an error.
    pub fn failures(&self) -> usize {
        self.resolutions
            .iter()
            .filter(|r| matches!(r, SoakResolution::Failed(_)))
            .count()
    }

    /// The longest queue wait of any dispatch, in dispatch ticks.
    pub fn max_wait_ticks(&self) -> u64 {
        self.dispatch_log
            .iter()
            .map(|r| r.wait_ticks)
            .max()
            .unwrap_or(0)
    }

    /// Asserts the robustness invariants of the replay (see the
    /// [module documentation](self)).
    ///
    /// # Errors
    ///
    /// A message naming the violated invariant and the observed values.
    pub fn check_invariants(&self, config: &SoakConfig) -> Result<(), String> {
        if self.inflight_after != 0 {
            return Err(format!(
                "wedged in-flight registry: {} key(s) still registered",
                self.inflight_after
            ));
        }
        let bound = config.aging_bound as u64 + self.counters.high_water as u64;
        for record in &self.dispatch_log {
            if record.wait_ticks > bound {
                return Err(format!(
                    "starvation past the aging bound: seq {} (tenant {}, {}) waited {} ticks, \
                     bound is aging {} + high water {}",
                    record.seq,
                    record.tenant,
                    record.priority,
                    record.wait_ticks,
                    config.aging_bound,
                    self.counters.high_water
                ));
            }
        }
        if let Some(quota) = config.tenant_quota {
            for tenant in &self.counters.tenants {
                if tenant.high_water > quota {
                    return Err(format!(
                        "tenant {} backlog exceeded its quota: high water {} > {}",
                        tenant.tenant, tenant.high_water, quota
                    ));
                }
            }
        }
        let arrivals = self.resolutions.len();
        let admitted = self.counters.submitted;
        let shed = self.counters.shed;
        if admitted + shed != arrivals {
            return Err(format!(
                "conservation violated: {admitted} admitted + {shed} shed != {arrivals} arrivals"
            ));
        }
        if self.dispatch_log.len() != admitted {
            return Err(format!(
                "dispatch log has {} record(s) for {admitted} admitted request(s)",
                self.dispatch_log.len()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak replay: {} event(s), {} admitted, {} shed, {} failure(s), \
             {} aged promotion(s), max wait {} tick(s), {} panic(s) contained",
            self.resolutions.len(),
            self.counters.submitted,
            self.counters.shed,
            self.failures(),
            self.counters
                .lanes
                .iter()
                .map(|l| l.aged_promotions)
                .sum::<usize>(),
            self.max_wait_ticks(),
            self.counters.panics_contained
        )
    }
}

/// A submitted event's pending ticket.
enum Ticket {
    Design(crate::submit::TicketHandle<DesyncDesign>),
    Sweep(crate::submit::TicketHandle<EquivalenceReport>),
}

/// Replays `recording` through a fresh engine and fair-scheduling queue.
/// The whole recording is staged (queue paused) before execution starts,
/// so the report — resolutions, dispatch log, counters — is bit-identical
/// across worker counts. Install a
/// `failpoints::FaultScope` around the call to replay
/// under a seeded fault plan.
///
/// # Errors
///
/// A message if any ticket fails to resolve within a generous timeout —
/// the wedged-queue condition the harness exists to catch.
pub fn run_soak(recording: &TrafficRecording, config: &SoakConfig) -> Result<SoakReport, String> {
    let engine = Arc::new(DesyncEngine::with_workers(2));
    let library = engine.intern_library(&CellLibrary::generic_90nm());

    // Intern each distinct design once; repeated events share the Arc.
    let max_design = recording.events.iter().map(|e| e.design).max().unwrap_or(0);
    let mut designs: Vec<Option<Arc<Netlist>>> = vec![None; max_design + 1];
    for event in &recording.events {
        if designs[event.design].is_none() {
            designs[event.design] = Some(engine.intern_netlist(&soak_design(event.design)));
        }
    }

    let queue = ServiceQueue::new(Arc::clone(&engine), config.queue_config());
    queue.pause();
    let mut tickets = Vec::with_capacity(recording.events.len());
    for event in &recording.events {
        let netlist = Arc::clone(designs[event.design].as_ref().expect("interned above"));
        let mut options = SubmitOptions::default().with_meta(
            SubmitMeta::new()
                .with_tenant(TenantId::new(event.tenant))
                .with_priority(event.priority),
        );
        if event.expired_deadline {
            options = options.with_deadline(Duration::ZERO);
        }
        let ticket = match event.kind {
            SoakKind::Design => Ticket::Design(queue.submit(
                QueueRequest::new(netlist, Arc::clone(&library), DesyncOptions::default()),
                options,
            )),
            SoakKind::Sweep => {
                let a = netlist.find_net("a").expect("soak designs have input a");
                let stimulus = VectorSource::pseudo_random(vec![a], 11 + event.design as u64);
                Ticket::Sweep(queue.submit_sweep(
                    QueueSweepRequest::new(
                        netlist,
                        Arc::clone(&library),
                        DesyncOptions::default(),
                        stimulus,
                        config.sweep_cycles,
                    ),
                    options,
                ))
            }
        };
        if event.cancel {
            match &ticket {
                Ticket::Design(handle) => handle.cancel(),
                Ticket::Sweep(handle) => handle.cancel(),
            }
        }
        tickets.push(ticket);
    }
    queue.resume();

    let mut resolutions = Vec::with_capacity(tickets.len());
    for (index, ticket) in tickets.into_iter().enumerate() {
        let resolution = match ticket {
            Ticket::Design(handle) => match handle.wait_timeout(WEDGE_TIMEOUT) {
                Some(Ok(design)) => SoakResolution::Design(Box::new(design)),
                Some(Err(error)) => SoakResolution::Failed(error),
                None => return Err(wedged(index)),
            },
            Ticket::Sweep(handle) => match handle.wait_timeout(WEDGE_TIMEOUT) {
                Some(Ok(report)) => SoakResolution::Sweep(Box::new(report)),
                Some(Err(error)) => SoakResolution::Failed(error),
                None => return Err(wedged(index)),
            },
        };
        resolutions.push(resolution);
    }

    let counters = queue.counters();
    let dispatch_log = queue.dispatch_log();
    drop(queue);
    let inflight_after = engine.inflight_artifacts();
    Ok(SoakReport {
        resolutions,
        dispatch_log,
        counters,
        inflight_after,
    })
}

fn wedged(index: usize) -> String {
    format!(
        "soak event {index}: ticket unresolved after {}s — queue wedged",
        WEDGE_TIMEOUT.as_secs()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_text_format_round_trips() {
        let recording = TrafficRecording::synthetic(42, 24, 3, 4);
        assert_eq!(recording.events.len(), 24);
        let text = recording.to_text();
        let parsed = TrafficRecording::parse(&text).unwrap();
        assert_eq!(parsed, recording);
        // Comments and blank lines are tolerated.
        let with_noise = format!("\n# noise\n{text}\n\n");
        assert_eq!(TrafficRecording::parse(&with_noise).unwrap(), recording);
    }

    #[test]
    fn recording_parse_names_the_offending_line() {
        let err = TrafficRecording::parse("0 urgent design 1").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("urgent"), "{err}");
        let err = TrafficRecording::parse("0 high design").unwrap_err();
        assert!(err.contains("missing design index"), "{err}");
        let err = TrafficRecording::parse("0 high design 1 sometimes").unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn synthetic_recordings_are_seed_deterministic_and_multi_tenant() {
        let a = TrafficRecording::synthetic(7, 40, 3, 4);
        let b = TrafficRecording::synthetic(7, 40, 3, 4);
        assert_eq!(a, b);
        let c = TrafficRecording::synthetic(8, 40, 3, 4);
        assert_ne!(a, c, "different seeds should differ");
        let tenants: std::collections::BTreeSet<u32> = a.events.iter().map(|e| e.tenant).collect();
        assert!(tenants.len() > 1, "expected multiple tenants: {tenants:?}");
        let burst = a.events.iter().filter(|e| e.tenant == 0).count();
        assert!(burst * 2 > a.events.len(), "tenant 0 should dominate");
    }

    #[test]
    fn soak_designs_have_distinct_structural_tags() {
        let recording = TrafficRecording::synthetic(5, 30, 3, 4);
        let tags = soak_tags(&recording);
        let unique: std::collections::BTreeSet<u64> = tags.iter().copied().collect();
        assert_eq!(unique.len(), tags.len(), "tags must be distinct: {tags:?}");
    }
}
