//! Property-based tests of the marked-graph engine: liveness and safeness
//! against exhaustive exploration, cycle time against timed simulation, and
//! the invariants of composition.

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
