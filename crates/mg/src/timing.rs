//! Timed analysis of marked graphs: steady-state cycle time (maximum cycle
//! ratio) and discrete-event simulation of the timed token game.
//!
//! In the desynchronization model the place delays carry the matched-delay /
//! combinational-logic propagation times, so the cycle time computed here is
//! the asynchronous equivalent of the clock period of the synchronous
//! circuit (paper Table 1, "Cycle Time" row).
//!
//! # How the cycle time is computed
//!
//! The reported cycle time is defined by a bisection on the ratio λ: a
//! Bellman-Ford check asks whether the weights `delay - λ·tokens` close a
//! positive cycle, i.e. whether λ lies below the maximum cycle ratio λ*.
//! Its exact bits are part of the flow's output (they set the verification
//! horizon), so they are kept — but the checks are not all run:
//!
//! 1. **Howard's policy iteration** (Cochet-Terrasson et al., 1998) finds
//!    λ_H, the ratio of a real cycle, in a few linear rounds: every
//!    transition picks one out-place on a cycle, the cycles of that policy
//!    are evaluated, and each round moves transitions first toward
//!    higher-ratio cycles, then, at equal ratio, toward heavier paths into
//!    their cycle.
//! 2. **One certificate check** at `λ_H + band` must find no positive cycle,
//!    where the band is `1e-10·(1 + |λ_H|)`: λ* then lies within the band
//!    above λ_H.
//! 3. **The bisection is replayed** with the comparison `mid < λ_H` as the
//!    outcome of each check, except for a `mid` inside the band, where the
//!    real check runs: its rounding and its slack decide there, exactly as
//!    they did in the plain bisection.
//!
//! Outside the band the comparison and the check agree: λ* lies in the band
//! above λ_H, so the check finds the λ_H cycle's gain below the band and no
//! positive cycle above it. That needs a gain the check can see, so every
//! case where it might not falls back to the same bisection with every
//! check run: a non-finite delay or λ_H, a policy that does not settle
//! within its round cap, a critical cycle whose gain at the band's edge
//! its relaxations' slack and rounding could hide, and a failed
//! certificate. The result is the plain bisection's, bit for bit, and
//! [`cycle_time_with_work`] reports the rounds and passes spent.

use crate::analysis::component_of;
use crate::graph::{MarkedGraph, TransitionId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Relative half-width of the band around λ_H inside which the bisection
/// runs the real Bellman-Ford check instead of comparing with λ_H.
const BAND: f64 = 1e-10;

/// Improvement slack of one Bellman-Ford relaxation.
const SLACK: f64 = 1e-12;

/// Round cap of the policy iteration; past it the bisection runs every
/// check.
const MAX_POLICY_ROUNDS: usize = 256;

/// Tolerance of the policy iteration's comparisons, relative to the
/// largest `|delay|`: differences below it count as ties.
const POLICY_TOLERANCE: f64 = 1e-12;

/// Work done by one [`cycle_time_with_work`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleTimeWork {
    /// Rounds of Howard's policy iteration (evaluation plus improvement).
    pub policy_rounds: usize,
    /// Passes over the place list made by Bellman-Ford positive-cycle
    /// checks: the certificate, checks inside the band, and every check of
    /// a fallback bisection.
    pub relaxation_passes: usize,
}

/// The steady-state cycle time of a timed marked graph: the maximum over all
/// directed cycles of (total delay on the cycle) / (tokens on the cycle).
///
/// Returns `0.0` for graphs without cycles (nothing constrains throughput)
/// and `f64::INFINITY` for graphs with a token-free cycle (not live: some
/// transition can never fire, so the period diverges).
///
/// The value is the upper end of a bisection bracket on λ (stop rule
/// `1e-9·(1 + hi)`), bit for bit; Howard's policy iteration decides almost
/// every step of that bisection, and a Bellman-Ford check runs only inside
/// a narrow band around the ratio it finds (see the module documentation).
pub fn cycle_time(graph: &MarkedGraph) -> f64 {
    cycle_time_with_work(graph).0
}

/// [`cycle_time`], plus the work it took: policy-iteration rounds and
/// Bellman-Ford relaxation passes.
pub fn cycle_time_with_work(graph: &MarkedGraph) -> (f64, CycleTimeWork) {
    let mut work = CycleTimeWork::default();
    if graph.num_places() == 0 || graph.num_transitions() == 0 {
        return (0.0, work);
    }
    if !crate::analysis::is_live(graph) {
        return (f64::INFINITY, work);
    }
    // Upper bound of the bisection: every cycle carries >= 1 token (the
    // graph is live), and a cycle's delay is at most the sum of all
    // *positive* place delays — the plain total would under-bound lambda*
    // as soon as any place has a negative delay, silently converging to a
    // wrong cycle time.
    let positive_delay: f64 = graph.places().map(|(_, p)| p.delay.max(0.0)).sum();
    // What one relaxation can hide of a gain: its slack plus one rounding
    // of a path weight, which the positive delays bound.
    let blur = SLACK + positive_delay * f64::EPSILON;
    let passes = &mut work.relaxation_passes;
    let critical = graph
        .places()
        .all(|(_, p)| p.delay.is_finite())
        .then(|| critical_cycle(graph, &mut work.policy_rounds))
        .flatten()
        .filter(|c| {
            // Below the band, the comparison stands in for a check that
            // must see the critical cycle's gain of at least band·tokens
            // through the blur of each of its relaxations; above the band,
            // the certificate check must find no positive cycle.
            c.ratio.is_finite()
                && 2.0 * c.places as f64 * blur < band(c.ratio) * c.tokens as f64
                && !has_positive_cycle(graph, c.ratio + band(c.ratio), passes)
        });
    let cycle_time = bisect(positive_delay, |mid| match &critical {
        Some(c) if (mid - c.ratio).abs() > band(c.ratio) => mid < c.ratio,
        _ => has_positive_cycle(graph, mid, passes),
    });
    (cycle_time, work)
}

/// The band half-width around the policy ratio `lambda`.
fn band(lambda: f64) -> f64 {
    BAND * (1.0 + lambda.abs())
}

/// Bisection on λ for the maximum cycle ratio of a live graph whose
/// positive place delays sum to `positive_delay`, with
/// `positive_cycle_at(λ)` answering whether the weights `delay - λ·tokens`
/// close a positive cycle (λ lies below the maximum cycle ratio).
fn bisect(positive_delay: f64, mut positive_cycle_at: impl FnMut(f64) -> bool) -> f64 {
    if !positive_cycle_at(0.0) {
        // No cycle with positive total delay: throughput is unconstrained.
        return 0.0;
    }
    let mut lo = 0.0_f64;
    let mut hi = positive_delay.max(1e-9);
    // Defense in depth: if rounding ever left lambda* above the analytic
    // bound, double until the bound holds instead of bisecting against an
    // invalid bracket. Divergence here would mean the liveness check above
    // lied, so give up loudly with infinity after a generous budget.
    let mut doublings = 0;
    while positive_cycle_at(hi) {
        hi *= 2.0;
        doublings += 1;
        if doublings > 128 {
            return f64::INFINITY;
        }
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if positive_cycle_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 * (1.0 + hi.abs()) {
            break;
        }
    }
    hi
}

/// Whether the graph with edge weights `delay - lambda * tokens` contains a
/// positive-weight cycle (Bellman-Ford style relaxation on longest paths).
/// Adds the passes it makes over the place list to `passes`.
fn has_positive_cycle(graph: &MarkedGraph, lambda: f64, passes: &mut usize) -> bool {
    let n = graph.num_transitions();
    let mut dist = vec![0.0_f64; n];
    // n iterations of relaxation; a further improvement implies a positive cycle.
    for iter in 0..=n {
        *passes += 1;
        let mut changed = false;
        for (_, p) in graph.places() {
            let w = p.delay - lambda * p.initial_tokens as f64;
            let cand = dist[p.from.index()] + w;
            if cand > dist[p.to.index()] + SLACK {
                dist[p.to.index()] = cand;
                changed = true;
                if iter == n {
                    return true;
                }
            }
        }
        if !changed {
            return false;
        }
    }
    false
}

/// The highest-ratio cycle of the policy Howard's iteration settles on:
/// its ratio (total delay over total tokens), place count and tokens.
struct CriticalCycle {
    ratio: f64,
    places: usize,
    tokens: u64,
}

/// Howard's policy iteration for the maximum cycle ratio of a live graph
/// with finite delays, over the places whose two transitions share a
/// strongly connected component (the only places on cycles).
///
/// A policy gives each transition on a cycle one such out-place, so each
/// transition leads to exactly one policy cycle; its ratio `eta` and a
/// potential `x` (path weight `delay - eta·tokens` down to the cycle) are
/// evaluated, and a transition switches to an out-place leading to a higher
/// ratio or, at equal ratio, to a higher potential. Rounds are counted in
/// `rounds`; `None` when the policy does not settle within
/// [`MAX_POLICY_ROUNDS`].
fn critical_cycle(graph: &MarkedGraph, rounds: &mut usize) -> Option<CriticalCycle> {
    let n = graph.num_transitions();
    let component = component_of(graph);
    // (to, delay, tokens) per place on a cycle, grouped by source.
    let mut out: Vec<Vec<(usize, f64, u32)>> = vec![Vec::new(); n];
    for (_, p) in graph.places() {
        if component[p.from.index()] == component[p.to.index()] {
            out[p.from.index()].push((p.to.index(), p.delay, p.initial_tokens));
        }
    }
    let scale = graph
        .places()
        .map(|(_, p)| p.delay.abs())
        .fold(0.0_f64, f64::max);
    let eps = POLICY_TOLERANCE * scale;
    // Initial policy: each transition's largest-delay out-place.
    let mut policy: Vec<Option<(usize, f64, u32)>> = out
        .iter()
        .map(|places| {
            places
                .iter()
                .copied()
                .reduce(|best, p| if p.1 > best.1 { p } else { best })
        })
        .collect();
    const UNSEEN: u8 = 0;
    const ON_PATH: u8 = 1;
    const DONE: u8 = 2;
    let mut eta = vec![0.0_f64; n];
    let mut x = vec![0.0_f64; n];
    let mut state = vec![UNSEEN; n];
    let mut path = Vec::new();
    for _ in 0..MAX_POLICY_ROUNDS {
        *rounds += 1;
        // Value determination: walk each transition's policy path until it
        // reaches an evaluated transition or closes a new cycle.
        state.fill(UNSEEN);
        let mut critical: Option<CriticalCycle> = None;
        for start in 0..n {
            if policy[start].is_none() || state[start] != UNSEEN {
                continue;
            }
            path.clear();
            let mut t = start;
            while state[t] == UNSEEN {
                state[t] = ON_PATH;
                path.push(t);
                t = policy[t]
                    .expect("policy transitions lead to policy transitions")
                    .0;
            }
            // A path back into itself closes a new cycle at `t`; its root
            // `t` keeps its potential from the previous round, so the
            // potentials of an unchanged cycle do not move.
            let root = (state[t] == ON_PATH).then(|| {
                let pos = path
                    .iter()
                    .position(|&s| s == t)
                    .expect("cycle root is on the path");
                let (mut delay, mut tokens) = (0.0_f64, 0_u64);
                for &s in &path[pos..] {
                    let (_, d, k) = policy[s].expect("cycle transitions have a policy");
                    delay += d;
                    tokens += u64::from(k);
                }
                let ratio = delay / tokens as f64;
                if critical.as_ref().is_none_or(|c| ratio > c.ratio) {
                    critical = Some(CriticalCycle {
                        ratio,
                        places: path.len() - pos,
                        tokens,
                    });
                }
                eta[t] = ratio;
                state[t] = DONE;
                pos
            });
            // Every other transition on the path, successor first.
            for (i, &s) in path.iter().enumerate().rev() {
                if Some(i) == root {
                    continue;
                }
                let (to, d, k) = policy[s].expect("path transitions have a policy");
                eta[s] = eta[to];
                x[s] = d - eta[to] * f64::from(k) + x[to];
                state[s] = DONE;
            }
        }
        // Policy improvement: first toward higher-ratio cycles ...
        let mut changed = false;
        for s in 0..n {
            let mut best = None;
            let mut best_eta = eta[s] + eps;
            for &p in &out[s] {
                if eta[p.0] > best_eta {
                    (best, best_eta) = (Some(p), eta[p.0]);
                }
            }
            if best.is_some() {
                policy[s] = best;
                changed = true;
            }
        }
        // ... then, once no ratio improves, toward higher potentials at
        // equal ratio.
        if !changed {
            for s in 0..n {
                let mut best = None;
                let mut best_x = x[s] + eps;
                for &p in &out[s] {
                    let (to, d, k) = p;
                    if (eta[to] - eta[s]).abs() > eps {
                        continue;
                    }
                    let value = d - eta[s] * f64::from(k) + x[to];
                    if value > best_x {
                        (best, best_x) = (Some(p), value);
                    }
                }
                if best.is_some() {
                    policy[s] = best;
                    changed = true;
                }
            }
        }
        if !changed {
            return critical;
        }
    }
    None
}

/// One firing of a transition in a timed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Firing {
    /// The transition that fired.
    pub transition: TransitionId,
    /// Simulation time of the firing.
    pub time: f64,
}

/// The result of a timed token-game simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedTrace {
    /// All firings in chronological order.
    pub firings: Vec<Firing>,
    /// Number of completed iterations of the reference transition.
    pub iterations: usize,
    /// Estimated steady-state period (time between consecutive firings of
    /// the reference transition, averaged over the second half of the run).
    ///
    /// With fewer than four reference firings there is no post-transient
    /// half to average; the last inter-firing gap is reported instead and
    /// may still contain start-up transient — simulate more iterations when
    /// the period must match [`cycle_time`].
    pub period: f64,
}

impl TimedTrace {
    /// Firing times of a specific transition.
    pub fn times_of(&self, t: TransitionId) -> Vec<f64> {
        self.firings
            .iter()
            .filter(|f| f.transition == t)
            .map(|f| f.time)
            .collect()
    }
}

/// An event-queue key ordering firing candidates by `(time, transition)`.
///
/// Times are compared with [`f64::total_cmp`], so the order is total (place
/// delays may legitimately be negative, and the sign-magnitude layout of raw
/// bit patterns would order negatives backwards). The transition index
/// tie-break reproduces the earliest-firing rule "among simultaneously
/// enabled transitions, the lowest index fires first" that a linear scan
/// over the transition list implements implicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    time: f64,
    t_idx: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.t_idx.cmp(&other.t_idx))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates the timed token game with earliest-firing semantics for
/// `iterations` firings of transition `reference` (or of transition 0 if
/// `reference` is `None`), returning the full trace and a period estimate.
///
/// Earliest-firing semantics: a transition fires as soon as every input
/// place holds a token whose delay has elapsed. This is the behaviour of a
/// speed-independent handshake implementation with matched delays.
///
/// The simulation is event-driven: enabled transitions wait in a priority
/// queue keyed by their ready time, and a firing re-examines only the
/// transitions whose input places it touched (in a marked graph each place
/// feeds exactly one consumer), instead of rescanning the whole transition
/// list per firing. Queue entries are revalidated against the current
/// marking when popped, so stale entries are dropped or re-keyed; the trace
/// is identical to the former full-rescan implementation.
pub fn simulate_timed(
    graph: &MarkedGraph,
    iterations: usize,
    reference: Option<TransitionId>,
) -> TimedTrace {
    let reference = reference.unwrap_or(TransitionId(0));
    let n_places = graph.num_places();
    // Token arrival-time queues per place.
    let mut queues: Vec<VecDeque<f64>> = vec![VecDeque::new(); n_places];
    for (id, p) in graph.places() {
        for _ in 0..p.initial_tokens {
            queues[id.index()].push_back(0.0);
        }
    }
    let presets: Vec<Vec<usize>> = graph
        .transitions()
        .map(|(t, _)| graph.preset(t).iter().map(|p| p.index()).collect())
        .collect();
    let postsets: Vec<Vec<usize>> = graph
        .transitions()
        .map(|(t, _)| graph.postset(t).iter().map(|p| p.index()).collect())
        .collect();
    // Place -> consuming transitions (exactly one in a well-formed marked
    // graph, but composition is not trusted here).
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n_places];
    for (t_idx, preset) in presets.iter().enumerate() {
        for &p in preset {
            consumers[p].push(t_idx);
        }
    }

    // The ready time of a transition under the current marking: the latest
    // front-token arrival over its preset, or `None` when a preset place is
    // empty. Source transitions (empty preset) would fire infinitely often
    // and are excluded.
    let ready = |queues: &[VecDeque<f64>], t_idx: usize| -> Option<f64> {
        let preset = &presets[t_idx];
        if preset.is_empty() {
            return None;
        }
        let mut ready = 0.0_f64;
        for &p in preset {
            ready = ready.max(*queues[p].front()?);
        }
        Some(ready)
    };

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<Candidate>> =
        std::collections::BinaryHeap::new();
    for t_idx in 0..presets.len() {
        if let Some(time) = ready(&queues, t_idx) {
            heap.push(std::cmp::Reverse(Candidate { time, t_idx }));
        }
    }

    let mut firings = Vec::new();
    let mut ref_times = Vec::new();
    let max_firings = iterations
        .saturating_mul(graph.num_transitions().max(1))
        .saturating_add(16);

    while firings.len() < max_firings {
        let Some(std::cmp::Reverse(candidate)) = heap.pop() else {
            break;
        };
        // Revalidate against the current marking: a stale entry is re-keyed
        // (the transition is enabled at a different time now) or dropped
        // (it is not enabled at all).
        let Some(time) = ready(&queues, candidate.t_idx) else {
            continue;
        };
        if time != candidate.time {
            heap.push(std::cmp::Reverse(Candidate {
                time,
                t_idx: candidate.t_idx,
            }));
            continue;
        }
        let t_idx = candidate.t_idx;
        let t = TransitionId(t_idx as u32);
        for &p in &presets[t_idx] {
            queues[p].pop_front();
        }
        for &p in &postsets[t_idx] {
            let delay = graph.place(crate::graph::PlaceId(p as u32)).delay;
            queues[p].push_back(time + delay);
        }
        // Only the fired transition and the consumers of its output places
        // can have changed readiness.
        if let Some(next) = ready(&queues, t_idx) {
            heap.push(std::cmp::Reverse(Candidate { time: next, t_idx }));
        }
        for &p in &postsets[t_idx] {
            for &c in &consumers[p] {
                if c == t_idx {
                    continue; // already re-queued above
                }
                if let Some(next) = ready(&queues, c) {
                    heap.push(std::cmp::Reverse(Candidate {
                        time: next,
                        t_idx: c,
                    }));
                }
            }
        }
        firings.push(Firing {
            transition: t,
            time,
        });
        if t == reference {
            ref_times.push(time);
            if ref_times.len() >= iterations {
                break;
            }
        }
    }

    let period = estimate_period(&ref_times);
    TimedTrace {
        firings,
        iterations: ref_times.len(),
        period,
    }
}

/// Minimum number of firings before [`estimate_period`] trusts its
/// second-half averaging window. Below this, the window would still contain
/// the very first inter-firing gap — pure start-up transient — and the
/// "steady-state" estimate could disagree arbitrarily with
/// [`cycle_time`]. With 2–3 firings the *last* gap is the closest available
/// approximation of steady state, so that is what the estimator returns;
/// callers needing a trustworthy period should simulate at least this many
/// reference firings.
const MIN_STEADY_WINDOW: usize = 4;

/// Average separation between consecutive firing times over the second half
/// of the sequence (ignoring the start-up transient).
///
/// With fewer than [`MIN_STEADY_WINDOW`] firings there is no post-transient
/// window to average; the last inter-firing gap is returned as a best-effort
/// estimate (it may still reflect the start-up transient).
fn estimate_period(times: &[f64]) -> f64 {
    if times.len() < 2 {
        return 0.0;
    }
    if times.len() < MIN_STEADY_WINDOW {
        return times[times.len() - 1] - times[times.len() - 2];
    }
    let start = times.len() / 2;
    let window = &times[start - 1..];
    (window[window.len() - 1] - window[0]) / (window.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MarkedGraph;

    fn two_ring(d1: f64, d2: f64, tokens: u32) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, d1);
        g.add_place(b, a, tokens, d2);
        g
    }

    #[test]
    fn cycle_time_of_simple_ring() {
        let g = two_ring(5.0, 7.0, 1);
        assert!((cycle_time(&g) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_time_divides_by_tokens() {
        let g = two_ring(5.0, 7.0, 2);
        assert!((cycle_time(&g) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_time_of_dead_graph_is_infinite() {
        let g = two_ring(5.0, 7.0, 0);
        assert!(cycle_time(&g).is_infinite());
    }

    #[test]
    fn cycle_time_takes_maximum_over_cycles() {
        // Two cycles through a shared transition; the slower one dominates.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let c = g.add_transition("c");
        g.add_place(a, b, 0, 3.0);
        g.add_place(b, a, 1, 3.0); // cycle a-b: 6
        g.add_place(a, c, 0, 10.0);
        g.add_place(c, a, 1, 10.0); // cycle a-c: 20
        assert!((cycle_time(&g) - 20.0).abs() < 1e-5);
    }

    #[test]
    fn cycle_time_of_acyclic_graph_is_zero() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, 4.0);
        assert_eq!(cycle_time(&g), 0.0);
        assert_eq!(cycle_time(&MarkedGraph::new()), 0.0);
    }

    #[test]
    fn simulation_period_matches_cycle_time() {
        let g = two_ring(5.0, 7.0, 1);
        let a = g.find_transition("a").unwrap();
        let trace = simulate_timed(&g, 50, Some(a));
        assert!(trace.iterations >= 40);
        assert!(
            (trace.period - 12.0).abs() < 1e-6,
            "period {}",
            trace.period
        );
        assert!((cycle_time(&g) - trace.period).abs() < 1e-5);
    }

    #[test]
    fn simulation_trace_is_causally_ordered() {
        let g = two_ring(2.0, 3.0, 1);
        let trace = simulate_timed(&g, 20, None);
        for w in trace.firings.windows(2) {
            assert!(w[0].time <= w[1].time + 1e-12);
        }
        let a = g.find_transition("a").unwrap();
        let times = trace.times_of(a);
        assert!(times.len() >= 10);
        // Strictly increasing firing times for the same transition.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn multi_token_pipeline_simulation() {
        // A 4-stage ring with 2 tokens: period = total delay / 2.
        let mut g = MarkedGraph::new();
        let t: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            let next = (i + 1) % 4;
            let tokens = if i % 2 == 0 { 1 } else { 0 };
            g.add_place(t[i], t[next], tokens, 4.0);
        }
        let expected = 16.0 / 2.0;
        assert!((cycle_time(&g) - expected).abs() < 1e-5);
        let trace = simulate_timed(&g, 60, Some(t[0]));
        assert!((trace.period - expected).abs() < 1e-5);
    }

    #[test]
    fn dead_graph_simulation_halts() {
        let g = two_ring(1.0, 1.0, 0);
        let trace = simulate_timed(&g, 10, None);
        assert!(trace.firings.is_empty());
        assert_eq!(trace.period, 0.0);
    }

    #[test]
    fn dead_graph_simulation_halts_at_any_iteration_count() {
        // The firing budget saturates instead of overflowing.
        let g = two_ring(1.0, 1.0, 0);
        let trace = simulate_timed(&g, usize::MAX, None);
        assert!(trace.firings.is_empty());
        assert_eq!(trace.iterations, 0);
    }

    #[test]
    fn estimate_period_short_sequences() {
        assert_eq!(estimate_period(&[]), 0.0);
        assert_eq!(estimate_period(&[1.0]), 0.0);
        assert!((estimate_period(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        // Three firings: the first gap (0 -> 3) is start-up transient; the
        // estimate must use the last gap only, not average the transient in.
        assert!((estimate_period(&[0.0, 3.0, 13.0]) - 10.0).abs() < 1e-12);
        // At MIN_STEADY_WINDOW firings the second-half window kicks in and
        // excludes the transient gap entirely.
        assert!((estimate_period(&[0.0, 3.0, 13.0, 23.0]) - 10.0).abs() < 1e-12);
        // A transient-free sequence gives the same answer either way.
        assert!((estimate_period(&[0.0, 5.0, 10.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_time_upper_bound_survives_negative_delays() {
        // Regression: the binary-search upper bound used to be the *signed*
        // sum of place delays. A negative-delay place (a modelling idiom for
        // credited time) pushed that sum below lambda*, and the empty guard
        // at the top of the search let the bisection silently converge to
        // the bogus bound instead of the true cycle time.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, 6.0);
        g.add_place(b, a, 1, 6.0); // cycle a-b: lambda* = 12
        let c = g.add_transition("c");
        let d = g.add_transition("d");
        g.add_place(c, d, 1, -5.0);
        g.add_place(d, c, 1, -6.0); // negative credit ring: signed sum = 1
        assert!((cycle_time(&g) - 12.0).abs() < 1e-6);
    }
}
