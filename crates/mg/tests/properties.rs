//! Property-based tests of the marked-graph engine: liveness and safeness
//! against exhaustive exploration, cycle time against timed simulation and,
//! bit for bit, against the Bellman-Ford bisection it replays, and the
//! invariants of composition.

use desync_mg::analysis::{
    count_reachable_markings, find_deadlock, is_live, is_safe, max_bound_exhaustive,
};
use desync_mg::compose::{compose, from_edges, same_structure};
use desync_mg::timing::{cycle_time, simulate_timed};
use desync_mg::{FlowEquivalence, FlowTrace, MarkedGraph, TransitionId};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// A random strongly connected marked graph: a ring of `n` transitions with
/// extra chords, tokens placed from the seed.
fn random_strongly_connected(seed: u64, n: usize, chords: usize) -> MarkedGraph {
    let mut g = MarkedGraph::new();
    let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Ring with at least one token.
    for i in 0..n {
        let tokens = if i == 0 { 1 } else { (next() % 2) as u32 };
        g.add_place(ids[i], ids[(i + 1) % n], tokens, 1.0 + (next() % 10) as f64);
    }
    for _ in 0..chords {
        let a = (next() as usize) % n;
        let b = (next() as usize) % n;
        if a != b {
            g.add_place(
                ids[a],
                ids[b],
                (next() % 2) as u32,
                1.0 + (next() % 10) as f64,
            );
        }
    }
    g
}

/// A random marked graph of one of three shapes: `0` is one
/// [`random_strongly_connected`] graph, `1` is two of them side by side and
/// `2` joins those two by a one-way place. Shapes 1 and 2 are not strongly
/// connected, and they are live exactly when both halves are.
fn random_shape(seed: u64, n: usize, chords: usize, shape: u8) -> MarkedGraph {
    let mut g = random_strongly_connected(seed, n, chords);
    if shape == 0 {
        return g;
    }
    let other = random_strongly_connected(seed.wrapping_add(0x9e37_79b9), n, chords);
    let offset = g.num_transitions() as u32;
    for (_, t) in other.transitions() {
        g.add_transition(format!("u{}", t.label));
    }
    for (_, p) in other.places() {
        let (from, to) = (
            TransitionId(p.from.0 + offset),
            TransitionId(p.to.0 + offset),
        );
        g.add_place(from, to, p.initial_tokens, p.delay);
    }
    if shape == 2 {
        g.add_place(TransitionId(0), TransitionId(offset), 0, 1.0);
    }
    g
}

/// Distinct markings the liveness and safeness oracles explore. The graphs
/// of [`random_shape`] that are safe stay far below it (see
/// `safeness_matches_exhaustive_bound`); the unbounded ones of shape 2 run
/// into it.
const ORACLE_LIMIT: usize = 5_000;

/// Whether every transition is enabled in some reachable marking, by a
/// breadth-first search over at most `limit` markings: `None` when the
/// search stops at the limit before it has seen every transition enabled.
fn every_transition_enabled(g: &MarkedGraph, limit: usize) -> Option<bool> {
    let mut never_enabled: HashSet<TransitionId> = g.transitions().map(|(t, _)| t).collect();
    let mut seen = HashSet::from([g.initial_marking()]);
    let mut queue = VecDeque::from([g.initial_marking()]);
    while let Some(m) = queue.pop_front() {
        for t in g.enabled(&m) {
            never_enabled.remove(&t);
            let mut next = m.clone();
            g.fire(&mut next, t);
            if !seen.contains(&next) {
                if seen.len() >= limit {
                    return never_enabled.is_empty().then_some(true);
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(never_enabled.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The structural liveness check agrees with an independent oracle: a
    /// marked graph is live iff every transition is enabled in some
    /// reachable marking, because a token-free cycle's transitions never
    /// fire. A live marked graph also never deadlocks.
    #[test]
    fn liveness_matches_deadlock_freedom(
        seed in 0u64..10_000,
        n in 2usize..6,
        chords in 0usize..4,
        shape in 0u8..3,
    ) {
        let g = random_shape(seed, n, chords, shape);
        if let Some(every) = every_transition_enabled(&g, ORACLE_LIMIT) {
            prop_assert_eq!(is_live(&g), every);
        }
        if let Some(deadlock) = find_deadlock(&g, ORACLE_LIMIT) {
            if is_live(&g) {
                prop_assert!(deadlock.is_none());
            }
        }
    }

    /// The structural safeness check agrees with the exhaustive bound, on
    /// strongly connected graphs and on live graphs that are not.
    #[test]
    fn safeness_matches_exhaustive_bound(
        seed in 0u64..10_000,
        n in 2usize..6,
        chords in 0usize..4,
        shape in 0u8..3,
    ) {
        let g = random_shape(seed, n, chords, shape);
        if !is_live(&g) {
            return Ok(()); // safeness check is only structural for live graphs
        }
        match max_bound_exhaustive(&g, ORACLE_LIMIT) {
            Some(bound) => prop_assert_eq!(is_safe(&g), bound <= 1, "bound was {}", bound),
            // A safe graph's marking is fixed by the firing-count difference
            // across each place, so a weak component of k transitions has at
            // most 2^(k-1) markings: here far below the limit. Exploration
            // past it (the one-way place of shape 2) means unsafe.
            None => prop_assert!(!is_safe(&g), "exploration past the limit"),
        }
    }

    /// Firing a complete cycle (every transition once, in a valid order)
    /// returns a live safe ring to its initial marking.
    #[test]
    fn ring_firing_is_periodic(n in 2usize..8) {
        let mut g = MarkedGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ids[i], ids[(i + 1) % n], u32::from(i == 0), 1.0);
        }
        let mut marking = g.initial_marking();
        for round in 0..3 {
            for step in 0..n {
                let enabled = g.enabled(&marking);
                prop_assert_eq!(enabled.len(), 1, "round {} step {}", round, step);
                g.fire(&mut marking, enabled[0]);
            }
            prop_assert_eq!(&marking, &g.initial_marking());
        }
    }

    /// The analytic cycle time matches the asymptotic period of the timed
    /// simulation on live safe graphs.
    #[test]
    fn cycle_time_matches_simulation(seed in 0u64..10_000, n in 2usize..6) {
        let g = random_strongly_connected(seed, n, 2);
        if !is_live(&g) || !is_safe(&g) {
            return Ok(());
        }
        let analytic = cycle_time(&g);
        prop_assume!(analytic.is_finite() && analytic > 0.0);
        let trace = simulate_timed(&g, 60, None);
        prop_assume!(trace.iterations >= 40);
        let relative = (trace.period - analytic).abs() / analytic;
        prop_assert!(relative < 0.05, "simulated {} vs analytic {}", trace.period, analytic);
    }

    /// Adding places (constraints) never decreases the cycle time, and
    /// scaling all delays scales the cycle time.
    #[test]
    fn cycle_time_monotonicity_and_scaling(seed in 0u64..10_000, n in 2usize..6, scale in 1u32..6) {
        let g = random_strongly_connected(seed, n, 1);
        prop_assume!(is_live(&g));
        let base = cycle_time(&g);
        // Add one more marked constraint place: cycle time cannot decrease
        // by more than numerical noise.
        let mut extended = g.clone();
        let t0 = desync_mg::TransitionId(0);
        let t1 = desync_mg::TransitionId((n as u32) - 1);
        extended.add_place(t0, t1, 1, 5.0);
        extended.add_place(t1, t0, 0, 5.0);
        prop_assert!(cycle_time(&extended) + 1e-6 >= base);
        // Scaling delays scales the cycle time linearly.
        let mut scaled = g.clone();
        let factor = scale as f64;
        for (id, _) in g.places() {
            scaled.place_mut(id).delay = g.place(id).delay * factor;
        }
        let scaled_ct = cycle_time(&scaled);
        prop_assert!((scaled_ct - base * factor).abs() < 1e-6 * (1.0 + base * factor));
    }

    /// Composition with an empty component is a no-op (up to structure), and
    /// composition is commutative with respect to structure.
    #[test]
    fn composition_is_structure_commutative(seed in 0u64..10_000, n in 2usize..5) {
        let a = random_strongly_connected(seed, n, 1);
        let b = random_strongly_connected(seed.wrapping_add(1), n, 1);
        let ab = compose(&[a.clone(), b.clone()]);
        let ba = compose(&[b, a.clone()]);
        prop_assert!(same_structure(&ab, &ba));
        // Composing with an empty component changes nothing beyond the
        // deduplication composition always performs.
        let normalized = compose(std::slice::from_ref(&a));
        let with_empty = compose(&[a, MarkedGraph::new()]);
        prop_assert!(same_structure(&normalized, &with_empty));
    }

    /// Reachable marking counts are bounded by the product of place bounds
    /// for safe graphs.
    #[test]
    fn safe_graphs_have_bounded_state_spaces(n in 2usize..6) {
        let mut edges: Vec<(String, String, u32, f64)> = Vec::new();
        for i in 0..n {
            edges.push((format!("t{i}"), format!("t{}", (i + 1) % n), u32::from(i == 0), 1.0));
        }
        let g = from_edges(&edges);
        prop_assert!(is_safe(&g));
        let count = count_reachable_markings(&g, 100_000).expect("small");
        // A single token rotating through n places has exactly n markings.
        prop_assert_eq!(count, n);
    }

    /// Flow-trace comparison is reflexive and detects any single-value
    /// corruption.
    #[test]
    fn flow_equivalence_detects_corruption(
        values in proptest::collection::vec(0u64..4, 1..20),
        corrupt_at in 0usize..20,
    ) {
        let mut reference = FlowTrace::new();
        for &v in &values {
            reference.push("r", v);
        }
        prop_assert!(FlowEquivalence::compare(&reference, &reference).is_equivalent());
        if corrupt_at < values.len() {
            let mut corrupted = FlowTrace::new();
            for (i, &v) in values.iter().enumerate() {
                corrupted.push("r", if i == corrupt_at { v + 1 } else { v });
            }
            let cmp = FlowEquivalence::compare(&reference, &corrupted);
            prop_assert!(!cmp.is_equivalent());
            prop_assert_eq!(cmp.mismatches[0].position, corrupt_at);
        }
    }
}

/// The cycle-time bisection as it stood before the policy iteration took
/// over its checks, copied verbatim: the oracle [`cycle_time`] must
/// reproduce bit for bit.
fn bisection_oracle(graph: &MarkedGraph) -> f64 {
    if graph.num_places() == 0 || graph.num_transitions() == 0 {
        return 0.0;
    }
    if !is_live(graph) {
        return f64::INFINITY;
    }
    // Binary search on lambda; lambda >= lambda* iff the graph with edge
    // weights (delay - lambda * tokens) has no positive cycle.
    if !oracle_has_positive_cycle(graph, 0.0) {
        // No cycle with positive total delay: throughput is unconstrained.
        return 0.0;
    }
    // Upper bound: every cycle carries >= 1 token (the graph is live), and a
    // cycle's delay is at most the sum of all *positive* place delays — the
    // plain total would under-bound lambda* as soon as any place has a
    // negative delay, silently converging to a wrong cycle time.
    let positive_delay: f64 = graph.places().map(|(_, p)| p.delay.max(0.0)).sum();
    let mut lo = 0.0_f64;
    let mut hi = positive_delay.max(1e-9);
    // Defense in depth: if rounding ever left lambda* above the analytic
    // bound, double until the bound holds instead of bisecting against an
    // invalid bracket. Divergence here would mean the liveness check above
    // lied, so give up loudly with infinity after a generous budget.
    let mut doublings = 0;
    while oracle_has_positive_cycle(graph, hi) {
        hi *= 2.0;
        doublings += 1;
        if doublings > 128 {
            return f64::INFINITY;
        }
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if oracle_has_positive_cycle(graph, mid) {
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
fn oracle_has_positive_cycle(graph: &MarkedGraph, lambda: f64) -> bool {
    let n = graph.num_transitions();
    let mut dist = vec![0.0_f64; n];
    // n iterations of relaxation; a further improvement implies a positive cycle.
    for iter in 0..=n {
        let mut changed = false;
        for (_, p) in graph.places() {
            let w = p.delay - lambda * p.initial_tokens as f64;
            let cand = dist[p.from.index()] + w;
            if cand > dist[p.to.index()] + 1e-12 {
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

/// SplitMix64: the oracle sweep's deterministic stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A timed marked graph for the cycle-time oracle, drawn from `seed`:
/// 2–41 transitions on a ring plus chords, up to 3 tokens per place, one
/// of four delay kinds (small integers, uniform reals, reals of both signs,
/// integers with near-tie offsets of 1e-9 to 1e-13) and one of four shapes
/// (a ring, a ring broken at one place, a ring with self-loops, two rings
/// joined one way).
///
/// Places that run forward in transition order may be token-free; the
/// others carry a token, so the graph is live — except in one draw of ten,
/// where any place may be empty.
fn oracle_graph(seed: u64) -> MarkedGraph {
    let mut rng = SplitMix(seed);
    let n = 2 + rng.below(40) as usize;
    let chords = rng.below(2 * n as u64) as usize;
    let delay_kind = rng.below(4);
    let shape = rng.below(4);
    let any_empty = rng.below(10) == 0;
    let delay = |rng: &mut SplitMix| match delay_kind {
        0 => rng.below(20) as f64,
        1 => 100.0 * rng.unit(),
        2 => 100.0 * rng.unit() - 50.0,
        _ => {
            let offset = (rng.below(5) as f64 - 2.0) * 10f64.powi(-9 - rng.below(5) as i32);
            rng.below(8) as f64 + offset
        }
    };
    let tokens = |rng: &mut SplitMix, from: usize, to: usize| {
        if from < to || any_empty {
            if rng.below(3) == 0 {
                rng.below(4) as u32
            } else {
                0
            }
        } else {
            1 + rng.below(3) as u32
        }
    };
    let mut g = MarkedGraph::new();
    let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
    // Shape 3 splits the transitions into two rings, the second fed by the
    // first through one token-free place.
    let split = if shape == 3 { n / 2 } else { 0 };
    let halves = [(0, split), (split, n)];
    for &(lo, hi) in &halves {
        for i in lo..hi {
            let next = if i + 1 == hi { lo } else { i + 1 };
            if shape == 1 && next == lo {
                continue; // the broken ring
            }
            let k = tokens(&mut rng, i, next);
            g.add_place(ids[i], ids[next], k, delay(&mut rng));
        }
    }
    if shape == 3 && split > 0 {
        g.add_place(ids[0], ids[split], 0, delay(&mut rng));
    }
    for _ in 0..chords {
        let (lo, hi) = halves[rng.below(2) as usize];
        if hi == lo {
            continue;
        }
        let from = lo + rng.below((hi - lo) as u64) as usize;
        let to = lo + rng.below((hi - lo) as u64) as usize;
        if shape == 2 && rng.below(4) == 0 {
            let k = tokens(&mut rng, from, from);
            g.add_place(ids[from], ids[from], k, delay(&mut rng));
        } else {
            let k = tokens(&mut rng, from, to);
            g.add_place(ids[from], ids[to], k, delay(&mut rng));
        }
    }
    g
}

/// Runs the oracle against [`cycle_time`] on the graphs of `seeds`.
fn assert_cycle_time_replays_bisection(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let g = oracle_graph(seed);
        let (got, want) = (cycle_time(&g), bisection_oracle(&g));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "seed {seed}: cycle time {got:e}, bisection {want:e}"
        );
    }
}

/// The cycle time is the bisection's result bit for bit, over a
/// deterministic sweep of random graphs.
#[test]
fn cycle_time_replays_the_bisection_bit_for_bit() {
    assert_cycle_time_replays_bisection(0..5_000);
}

/// The sweep at 200,000 graphs (release: `cargo test --release -p
/// desync-mg --test properties -- --ignored`).
#[test]
#[ignore = "200,000 graphs: run in release with --ignored"]
fn cycle_time_replays_the_bisection_on_a_large_sweep() {
    assert_cycle_time_replays_bisection(0..200_000);
}

/// Delays the policy iteration cannot use (NaN, ±∞), signed zeros, huge
/// magnitudes and negative-ratio cycles: the cycle time still equals the
/// bisection bit for bit.
#[test]
fn cycle_time_replays_the_bisection_on_edge_case_delays() {
    const DELAYS: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e300,
        -1e300,
        5.0,
        -7.0,
        1e-300,
    ];
    let check = |g: &MarkedGraph, what: &str| {
        let (got, want) = (cycle_time(g), bisection_oracle(g));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: cycle time {got:e}, bisection {want:e}"
        );
    };
    // One special delay in each graph of the sweep's first 2,000.
    for seed in 0..2_000u64 {
        let mut g = oracle_graph(seed);
        let place = desync_mg::PlaceId((seed % g.num_places() as u64) as u32);
        let special = DELAYS[(seed / 7 % DELAYS.len() as u64) as usize];
        g.place_mut(place).delay = special;
        check(&g, &format!("seed {seed} with {place} = {special:e}"));
    }
    for d1 in DELAYS {
        for d2 in DELAYS {
            for tokens in 1..=2 {
                // A two-transition ring.
                let mut ring = MarkedGraph::new();
                let a = ring.add_transition("a");
                let b = ring.add_transition("b");
                ring.add_place(a, b, 0, d1);
                ring.add_place(b, a, tokens, d2);
                check(&ring, &format!("ring ({d1:e}, {d2:e}) x{tokens}"));
                // Two cycles through `a`, one of them a self-loop, and a
                // one-token ring of ordinary delays beside them.
                let mut pair = ring.clone();
                pair.add_place(a, a, tokens, d1 + d2);
                let c = pair.add_transition("c");
                pair.add_place(a, c, 0, 3.0);
                pair.add_place(c, a, 1, d2);
                check(&pair, &format!("pair ({d1:e}, {d2:e}) x{tokens}"));
            }
        }
    }
}

/// A policy that stops short of the critical cycle: at `a`, the ring
/// through `e` beats the ring through `b` by 1e-7 per token, below the
/// policy iteration's tolerance (1e-12 of the 1e6 delay on a slow ring
/// beside them), so it settles on ratio 10 while the maximum is 10 + 1e-7.
/// The certificate check at the top of the band finds the faster ring,
/// and the bisection runs every check.
#[test]
fn a_stalled_policy_fails_its_certificate() {
    let mut g = MarkedGraph::new();
    let [a, b, e, c, d] = ["a", "b", "e", "c", "d"].map(|l| g.add_transition(l));
    g.add_place(a, b, 0, 10.0);
    g.add_place(b, a, 1, 0.0);
    g.add_place(a, e, 0, 5.0);
    g.add_place(e, a, 1, 5.0 + 1e-7);
    g.add_place(c, d, 0, 1e6);
    g.add_place(d, c, 1_000_000, 0.0);
    let (got, want) = (cycle_time(&g), bisection_oracle(&g));
    assert!((want - (10.0 + 1e-7)).abs() < 1e-8, "bisection {want:e}");
    assert_eq!(got.to_bits(), want.to_bits(), "{got:e} vs {want:e}");
}

/// A one-token self-loop of delay 1.0000000000002 (seed 127,638 of the
/// sweep, beside one place on no cycle). The check's 1e-12 relaxation
/// slack hides the loop's gain at midpoints just below that ratio, so the
/// bisection ends below it. Comparing every midpoint with the ratio — a
/// zero-width band — would move `hi` only to midpoints at or above the
/// ratio and end elsewhere; the band leaves these midpoints to the real
/// check.
#[test]
fn band_leaves_the_check_slack_to_the_real_check() {
    let g = oracle_graph(127_638);
    let self_loop = g
        .places()
        .find(|(_, p)| p.from == p.to)
        .map(|(_, p)| p.clone())
        .expect("seed 127,638 draws a self-loop");
    assert_eq!(g.num_places(), 2);
    assert_eq!(self_loop.initial_tokens, 1);
    let ratio = self_loop.delay;
    let oracle = bisection_oracle(&g);
    assert!(oracle < ratio, "bisection {oracle:e} vs ratio {ratio:e}");
    assert_eq!(cycle_time(&g).to_bits(), oracle.to_bits());
}

/// A ring too long for the check's per-place slack to stay inside the
/// band: 400 places of 1e-12 and one token, ratio 4e-10. No single place
/// gains more than the 1e-12 slack, so even the check at 0 finds no
/// positive cycle and the bisection answers 0; the policy iteration's
/// ratio, well outside the band at 0, cannot stand in for that check, and
/// the bisection runs every check.
#[test]
fn ring_of_slack_sized_delays_replays_the_bisection() {
    let len = 400;
    let mut g = MarkedGraph::new();
    let ids: Vec<_> = (0..len)
        .map(|i| g.add_transition(format!("t{i}")))
        .collect();
    for i in 0..len {
        g.add_place(ids[i], ids[(i + 1) % len], u32::from(i + 1 == len), 1e-12);
    }
    let (got, want) = (cycle_time(&g), bisection_oracle(&g));
    assert_eq!(want, 0.0);
    assert_eq!(got.to_bits(), want.to_bits(), "{got:e} vs {want:e}");
}
