//! Structural and behavioural analyses of marked graphs: liveness, safeness,
//! strong connectivity and explicit reachability exploration.
//!
//! The classic marked-graph theorems (Commoner / Murata) make the two key
//! properties of the desynchronization model cheap to check:
//!
//! * **Liveness** — a marked graph is live iff every directed cycle carries
//!   at least one token, i.e. the subgraph of token-free places is acyclic.
//! * **Safeness** — a live marked graph is safe (1-bounded) iff every place
//!   belongs to a directed cycle whose total token count is exactly one.
//!
//! Each property is one analysis: a witness search names the offending
//! cycle or component ([`token_free_cycle`], [`multi_token_cycle`],
//! [`strongly_connected_components`]), and each boolean verdict is its
//! projection ([`is_live`], [`is_strongly_connected`], and the structural
//! regime of [`is_safe`]). [`is_safe`] has two regimes: structural for live
//! graphs, explicit exploration for the rest.

use crate::graph::{MarkedGraph, Marking, PlaceId, TransitionId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// A directed cycle of a marked graph, reported as the places traversed in
/// order (place `i` ends at the transition place `i + 1` leaves, wrapping at
/// the end) plus the cycle's total initial token count.
///
/// Witnesses are **canonical**: the cycle is rotated so its minimum
/// [`PlaceId`] comes first, and the producing traversals visit transitions
/// and places in id order — the same graph always yields the identical
/// witness, across runs, processes and refactors of the traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The places on the cycle, in traversal order, starting at the
    /// minimum place id.
    pub places: Vec<PlaceId>,
    /// Initial tokens summed over the cycle's places, saturating at
    /// `u32::MAX`.
    pub tokens: u32,
}

impl CycleWitness {
    /// Checks that this witness really is a directed cycle of `graph` and
    /// that [`CycleWitness::tokens`] matches the places' token sum. Used by
    /// callers (and the property suite) to confirm a verdict instead of
    /// trusting it.
    pub fn verify(&self, graph: &MarkedGraph) -> bool {
        if self.places.is_empty() {
            return false;
        }
        let mut tokens = 0u32;
        for (i, &id) in self.places.iter().enumerate() {
            let place = graph.place(id);
            let next = graph.place(self.places[(i + 1) % self.places.len()]);
            if place.to != next.from {
                return false;
            }
            tokens = tokens.saturating_add(place.initial_tokens);
        }
        tokens == self.tokens
    }
}

/// Rotates a cycle of places so it starts at its minimum [`PlaceId`].
fn canonicalize_cycle(places: &mut [PlaceId]) {
    if let Some(min) = places
        .iter()
        .enumerate()
        .min_by_key(|&(_, id)| *id)
        .map(|(pos, _)| pos)
    {
        places.rotate_left(min);
    }
}

/// Each transition's out-going places in place-id order, as
/// `(to, tokens, place)`: the one adjacency every graph search walks.
fn out_places(graph: &MarkedGraph) -> Vec<Vec<(usize, u32, PlaceId)>> {
    let mut adj = vec![Vec::new(); graph.num_transitions()];
    for (id, p) in graph.places() {
        adj[p.from.index()].push((p.to.index(), p.initial_tokens, id));
    }
    adj
}

/// Finds a **token-free directed cycle** — the witness that the marked
/// graph is not live (the transitions on it can never fire) — or `None`
/// when every cycle carries a token and the graph is therefore live.
///
/// [`is_live`] is this function's boolean projection; callers that need to
/// report *why* a control network deadlocks get the named cycle here.
pub fn token_free_cycle(graph: &MarkedGraph) -> Option<CycleWitness> {
    let adj = out_places(graph);
    // Iterative DFS over token-free places, in transition-id order; `path`
    // carries the place used to enter each stacked transition (the root has
    // none).
    let mut color = vec![0u8; adj.len()];
    for start in 0..adj.len() {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<(usize, Option<PlaceId>)> = vec![(start, None)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let (succ, tokens, place) = adj[node][*next];
                *next += 1;
                if tokens > 0 {
                    continue;
                }
                match color[succ] {
                    0 => {
                        color[succ] = 1;
                        stack.push((succ, 0));
                        path.push((succ, Some(place)));
                    }
                    1 => {
                        // Cycle closed at `succ`: collect the entering
                        // places from `succ`'s successor on the path, then
                        // the closing place.
                        let pos = path
                            .iter()
                            .position(|&(t, _)| t == succ)
                            .expect("grey transition is on the path");
                        let mut places: Vec<PlaceId> =
                            path[pos + 1..].iter().filter_map(|&(_, p)| p).collect();
                        places.push(place);
                        canonicalize_cycle(&mut places);
                        return Some(CycleWitness { places, tokens: 0 });
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Whether the marked graph is live: from the initial marking every
/// transition can always eventually fire again.
///
/// By the marked-graph liveness theorem this holds iff no directed cycle is
/// token-free: the boolean projection of [`token_free_cycle`], which names
/// the offending cycle.
pub fn is_live(graph: &MarkedGraph) -> bool {
    token_free_cycle(graph).is_none()
}

/// Whether the underlying directed graph (transitions as nodes, places as
/// edges) is strongly connected: the boolean projection of
/// [`strongly_connected_components`].
pub fn is_strongly_connected(graph: &MarkedGraph) -> bool {
    strongly_connected_components(graph).len() <= 1
}

/// The strongly connected components of the underlying directed graph
/// (transitions as nodes, places as edges), each sorted ascending, the
/// component list ordered by its minimum transition id — a canonical
/// connectivity report for diagnostics on graphs that fail
/// [`is_strongly_connected`].
pub fn strongly_connected_components(graph: &MarkedGraph) -> Vec<Vec<TransitionId>> {
    // Kosaraju: forward DFS finish order (transitions visited in id order),
    // then backward DFS over the reversed edges in that order.
    let fwd = out_places(graph);
    let n = fwd.len();
    let mut bwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, outs) in fwd.iter().enumerate() {
        for &(to, _, _) in outs {
            bwd[to].push(from);
        }
    }
    let mut finish = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < fwd[node].len() {
                let succ = fwd[node][*next].0;
                *next += 1;
                if !seen[succ] {
                    seen[succ] = true;
                    stack.push((succ, 0));
                }
            } else {
                finish.push(node);
                stack.pop();
            }
        }
    }
    let mut components = Vec::new();
    let mut assigned = vec![false; n];
    for &root in finish.iter().rev() {
        if assigned[root] {
            continue;
        }
        let mut component = vec![root];
        assigned[root] = true;
        let mut queue = vec![root];
        while let Some(node) = queue.pop() {
            for &pred in &bwd[node] {
                if !assigned[pred] {
                    assigned[pred] = true;
                    component.push(pred);
                    queue.push(pred);
                }
            }
        }
        component.sort_unstable();
        components.push(
            component
                .into_iter()
                .map(|t| TransitionId(t as u32))
                .collect(),
        );
    }
    components.sort_unstable_by_key(|c: &Vec<TransitionId>| c[0]);
    components
}

/// Each transition's index in [`strongly_connected_components`]: a place
/// lies on a cycle iff its two transitions share an index.
pub(crate) fn component_of(graph: &MarkedGraph) -> Vec<usize> {
    let mut component = vec![0; graph.num_transitions()];
    for (c, members) in strongly_connected_components(graph).iter().enumerate() {
        for t in members {
            component[t.index()] = c;
        }
    }
    component
}

/// Finds a directed cycle carrying **more than one token** such that no
/// cycle through one of its places carries fewer — the structural witness
/// that a live marked graph is unsafe (the place can actually accumulate
/// that many tokens) — or `None` when every place on a cycle lies on a
/// one-token cycle. Places on no cycle are skipped.
///
/// The lowest offending place id produces the witness, so the result is a
/// pure function of the graph. The witness is the fewest-token path back
/// from the place's target to its source, found by Dijkstra (token counts
/// as lengths, heap ordered by distance then transition id, places relaxed
/// in id order, parents replaced only on strict improvement), closed by the
/// place itself.
///
/// On a live graph the token-free places form a DAG, and a bit-parallel
/// closure over it finds the offending place in O((T + P)·⌈T/64⌉) time
/// and O(T + P) memory, for T transitions and P places: for each block of 64
/// transitions, two reverse-topological sweeps give every transition the
/// block members it reaches with no token (R0) and with at most one (R≤1).
/// A place `u → v` with `k` tokens, `u` and `v` in one strongly connected
/// component, offends iff `k ≥ 2`, or `k = 1` and `u ∉ R0(v)`, or `k = 0`
/// and `u ∉ R≤1(v)`; one Dijkstra then builds its witness. A graph that is
/// not live runs one Dijkstra per target transition instead.
pub fn multi_token_cycle(graph: &MarkedGraph) -> Option<CycleWitness> {
    let adj = out_places(graph);
    let Some(order) = token_free_order(&adj) else {
        return multi_token_cycle_per_target(graph, &adj).map(|(_, witness)| witness);
    };
    let id = lowest_overloaded_place(graph, &adj, &order)?;
    let mut paths = TokenPaths::new(adj.len());
    paths.run(&adj, graph.place(id).to.index());
    Some(paths.cycle_through(graph, id))
}

/// A topological order of the transitions over the token-free places
/// (Kahn's algorithm), or `None` when token-free places close a cycle and
/// the graph is not live.
fn token_free_order(adj: &[Vec<(usize, u32, PlaceId)>]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; adj.len()];
    for &(to, _, _) in adj.iter().flatten().filter(|&&(_, tokens, _)| tokens == 0) {
        indegree[to] += 1;
    }
    let mut order: Vec<usize> = (0..adj.len()).filter(|&t| indegree[t] == 0).collect();
    let mut next = 0;
    while let Some(&t) = order.get(next) {
        next += 1;
        for &(to, tokens, _) in &adj[t] {
            if tokens == 0 {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    order.push(to);
                }
            }
        }
    }
    (order.len() == adj.len()).then_some(order)
}

/// The lowest place on a cycle all of whose cycles carry two or more
/// tokens, on a live graph whose token-free places are ordered by `order`:
/// the bit-parallel closure of [`multi_token_cycle`].
fn lowest_overloaded_place(
    graph: &MarkedGraph,
    adj: &[Vec<(usize, u32, PlaceId)>],
    order: &[usize],
) -> Option<PlaceId> {
    let n = adj.len();
    let component = component_of(graph);
    // Bit `i` of `r0[t]` / `r1[t]`: transition `base + i` is reachable from
    // `t` over places carrying no token / at most one token in total.
    let mut r0 = vec![0u64; n];
    let mut r1 = vec![0u64; n];
    let mut lowest: Option<PlaceId> = None;
    for base in (0..n).step_by(64) {
        let end = n.min(base + 64);
        let own = |t: usize| {
            t.checked_sub(base)
                .filter(|&i| i < 64)
                .map_or(0, |i| 1 << i)
        };
        for &t in order.iter().rev() {
            r0[t] = adj[t]
                .iter()
                .filter(|&&(_, tokens, _)| tokens == 0)
                .fold(own(t), |mask, &(to, _, _)| mask | r0[to]);
        }
        for &t in order.iter().rev() {
            r1[t] = adj[t]
                .iter()
                .fold(r0[t], |mask, &(to, tokens, _)| match tokens {
                    0 => mask | r1[to],
                    1 => mask | r0[to],
                    _ => mask,
                });
        }
        for (u, places) in adj.iter().enumerate().take(end).skip(base) {
            for &(v, tokens, id) in places {
                let overloaded = component[u] == component[v]
                    && match tokens {
                        0 => r1[v] & own(u) == 0,
                        1 => r0[v] & own(u) == 0,
                        _ => true,
                    };
                if overloaded && lowest.is_none_or(|best| id < best) {
                    lowest = Some(id);
                }
            }
        }
    }
    lowest
}

/// [`multi_token_cycle`] on any graph, with the lowest offending place: one
/// Dijkstra per distinct target transition, skipping targets whose places
/// cannot beat the lowest offending place found so far.
fn multi_token_cycle_per_target(
    graph: &MarkedGraph,
    adj: &[Vec<(usize, u32, PlaceId)>],
) -> Option<(PlaceId, CycleWitness)> {
    let mut entering: Vec<Vec<PlaceId>> = vec![Vec::new(); adj.len()];
    for (id, p) in graph.places() {
        entering[p.to.index()].push(id);
    }
    let mut paths = TokenPaths::new(adj.len());
    let mut found: Option<(PlaceId, CycleWitness)> = None;
    for (target, group) in entering.iter().enumerate() {
        let below_found = |id: PlaceId| found.as_ref().is_none_or(|(best, _)| id < *best);
        if !group.first().is_some_and(|&first| below_found(first)) {
            continue;
        }
        paths.run(adj, target);
        let offending = group.iter().copied().find(|&id| {
            paths
                .cycle_tokens(graph, id)
                .is_some_and(|tokens| tokens > 1)
        });
        if let Some(id) = offending.filter(|&id| below_found(id)) {
            found = Some((id, paths.cycle_through(graph, id)));
        }
    }
    found
}

/// Fewest-token paths out of one target transition: Dijkstra with token
/// counts as lengths, in buffers reused across targets.
struct TokenPaths {
    target: usize,
    dist: Vec<Option<u32>>,
    parent: Vec<Option<(usize, PlaceId)>>,
    heap: BinaryHeap<Reverse<(u32, usize)>>,
}

impl TokenPaths {
    fn new(transitions: usize) -> Self {
        Self {
            target: 0,
            dist: vec![None; transitions],
            parent: vec![None; transitions],
            heap: BinaryHeap::new(),
        }
    }

    /// Runs Dijkstra from `target`: heap ordered by distance then
    /// transition id, places relaxed in id order, parents replaced only on
    /// strict improvement. Distances saturate at `u32::MAX`.
    fn run(&mut self, adj: &[Vec<(usize, u32, PlaceId)>], target: usize) {
        let Self {
            dist, parent, heap, ..
        } = self;
        self.target = target;
        dist.fill(None);
        parent.fill(None);
        heap.clear();
        dist[target] = Some(0);
        heap.push(Reverse((0, target)));
        while let Some(Reverse((d, node))) = heap.pop() {
            if dist[node] != Some(d) {
                continue;
            }
            for &(succ, w, place) in &adj[node] {
                let nd = d.saturating_add(w);
                if dist[succ].is_none_or(|old| nd < old) {
                    dist[succ] = Some(nd);
                    parent[succ] = Some((node, place));
                    heap.push(Reverse((nd, succ)));
                }
            }
        }
    }

    /// Tokens on the fewest-token cycle through place `id`, which enters
    /// the target: `None` when its source is not reachable from the target.
    fn cycle_tokens(&self, graph: &MarkedGraph, id: PlaceId) -> Option<u32> {
        let p = graph.place(id);
        Some(self.dist[p.from.index()]?.saturating_add(p.initial_tokens))
    }

    /// The fewest-token cycle through place `id`: the shortest token path
    /// target -> ... -> the place's source, closed by the place itself.
    fn cycle_through(&self, graph: &MarkedGraph, id: PlaceId) -> CycleWitness {
        let tokens = self
            .cycle_tokens(graph, id)
            .expect("the place lies on a cycle through the target");
        let mut places = Vec::new();
        let mut node = graph.place(id).from.index();
        while node != self.target {
            let (pred, via) = self.parent[node].expect("reached nodes have parents");
            places.push(via);
            node = pred;
        }
        places.reverse();
        places.push(id);
        canonicalize_cycle(&mut places);
        CycleWitness { places, tokens }
    }
}

/// Whether the marked graph is safe (no reachable marking puts more than one
/// token in any place).
///
/// A live graph is decided by structure: it is safe iff every place lies on
/// a cycle (its two transitions share a strongly connected component — a
/// place on no cycle is unbounded, since its producer fires without its
/// consumer) and [`multi_token_cycle`] finds nothing, which on a live graph
/// takes O((T + P)·⌈T/64⌉) time for T transitions and P places. A graph
/// that is not live falls back to an explicit reachability exploration
/// bounded by [`DEFAULT_EXPLORATION_LIMIT`] markings; graphs that exceed
/// the bound are conservatively reported unsafe.
pub fn is_safe(graph: &MarkedGraph) -> bool {
    if !is_live(graph) {
        return matches!(
            max_bound_exhaustive(graph, DEFAULT_EXPLORATION_LIMIT),
            Some(b) if b <= 1
        );
    }
    let component = component_of(graph);
    graph
        .places()
        .all(|(_, p)| component[p.from.index()] == component[p.to.index()])
        && multi_token_cycle(graph).is_none()
}

/// Default cap on the number of distinct markings explored by the
/// exhaustive analyses.
pub const DEFAULT_EXPLORATION_LIMIT: usize = 200_000;

/// Breadth-first search of the reachability graph from the initial marking:
/// `visit` sees each distinct reachable marking once, with the transitions
/// it enables, and stops the search by returning `Some`. Returns that value,
/// `Some(None)` once every reachable marking was visited, or `None` as soon
/// as more than `limit` distinct markings are reached.
fn explore<B>(
    graph: &MarkedGraph,
    limit: usize,
    mut visit: impl FnMut(&Marking, &[TransitionId]) -> Option<B>,
) -> Option<Option<B>> {
    let initial = graph.initial_marking();
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back(initial);
    while let Some(m) = queue.pop_front() {
        let enabled = graph.enabled(&m);
        if let Some(stop) = visit(&m, &enabled) {
            return Some(Some(stop));
        }
        for t in enabled {
            let mut next = m.clone();
            graph.fire(&mut next, t);
            if !seen.contains(&next) {
                if seen.len() >= limit {
                    return None;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(None)
}

/// Explores the reachability graph and returns the maximum token count
/// observed in any single place, or `None` when more than `limit` distinct
/// markings were reached (exploration aborted).
pub fn max_bound_exhaustive(graph: &MarkedGraph, limit: usize) -> Option<u32> {
    let mut max = 0;
    explore(graph, limit, |m, _| {
        max = max.max(m.0.iter().copied().max().unwrap_or(0));
        None::<()>
    })?;
    Some(max)
}

/// The number of distinct reachable markings, up to `limit` (returns `None`
/// when the limit is exceeded).
pub fn count_reachable_markings(graph: &MarkedGraph, limit: usize) -> Option<usize> {
    let mut count = 0;
    explore(graph, limit, |_, _| {
        count += 1;
        None::<()>
    })?;
    Some(count)
}

/// Whether there exists a reachable deadlock (a marking with no enabled
/// transition). Exploration is bounded by `limit` markings; returns `None`
/// when the bound is hit without finding a deadlock.
pub fn find_deadlock(graph: &MarkedGraph, limit: usize) -> Option<Option<Marking>> {
    explore(graph, limit, |m, enabled| {
        enabled.is_empty().then(|| m.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MarkedGraph;

    fn ring(labels: &[&str], tokens_on_last: u32) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ids: Vec<_> = labels.iter().map(|&l| g.add_transition(l)).collect();
        for i in 0..ids.len() {
            let next = (i + 1) % ids.len();
            let tok = if next == 0 { tokens_on_last } else { 0 };
            g.add_place(ids[i], ids[next], tok, 1.0);
        }
        g
    }

    #[test]
    fn marked_ring_is_live_and_safe() {
        let g = ring(&["a", "b", "c"], 1);
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn tokenless_ring_is_dead() {
        let g = ring(&["a", "b", "c"], 0);
        assert!(!is_live(&g));
        assert_eq!(find_deadlock(&g, 100), Some(Some(g.initial_marking())));
    }

    #[test]
    fn two_token_ring_is_live_but_unsafe_structurally() {
        let g = ring(&["a", "b"], 2);
        assert!(is_live(&g));
        assert!(!is_safe(&g));
        // The exhaustive bound agrees.
        assert_eq!(max_bound_exhaustive(&g, 1000), Some(2));
    }

    #[test]
    fn parallel_rings_sharing_a_transition() {
        // Two 1-token cycles through a shared transition: live and safe.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        let c = g.add_transition("c");
        g.add_place(a, b, 0, 1.0);
        g.add_place(b, a, 1, 1.0);
        g.add_place(a, c, 0, 1.0);
        g.add_place(c, a, 1, 1.0);
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert_eq!(count_reachable_markings(&g, 1000), Some(4));
    }

    #[test]
    fn unsafe_when_cycle_has_two_tokens_through_place() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        // Both places marked: the cycle carries 2 tokens -> place can reach 2.
        g.add_place(a, b, 1, 1.0);
        g.add_place(b, a, 1, 1.0);
        assert!(is_live(&g));
        assert!(!is_safe(&g));
        assert_eq!(max_bound_exhaustive(&g, 1000), Some(2));
    }

    #[test]
    fn place_not_on_cycle() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, 0, 1.0);
        assert!(!is_strongly_connected(&g));
        // Source transition `a` can fire unboundedly: exploration hits limit.
        assert_eq!(max_bound_exhaustive(&g, 10), None);
        assert!(!is_safe(&g));
    }

    #[test]
    fn deadlock_free_marked_ring() {
        let g = ring(&["a", "b", "c", "d"], 1);
        assert_eq!(find_deadlock(&g, 10_000), Some(None));
    }

    #[test]
    fn disjoint_one_token_rings_are_safe_by_structure() {
        // Twelve one-token 3-rings: live and safe, but not strongly connected,
        // with 3^12 = 531,441 reachable markings, past the exploration limit.
        let mut g = MarkedGraph::new();
        for r in 0..12 {
            let ids: Vec<_> = (0..3)
                .map(|i| g.add_transition(format!("r{r}t{i}")))
                .collect();
            for i in 0..3 {
                g.add_place(ids[i], ids[(i + 1) % 3], u32::from(i == 2), 1.0);
            }
        }
        assert!(is_live(&g));
        assert!(!is_strongly_connected(&g));
        assert!(is_safe(&g));
    }

    /// A live graph of up to 150 transitions (so up to three 64-transition
    /// blocks): a ring plus chords, empty places only forward in transition
    /// order, and a dangling token-free chain off the ring.
    fn random_live_graph(seed: u64) -> MarkedGraph {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let n = 1 + next(150) as usize;
        let mut arcs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for _ in 0..next(n as u64 / 2 + 2) {
            arcs.push((next(n as u64) as usize, next(n as u64) as usize));
        }
        let mut g = MarkedGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for (from, to) in arcs {
            // Places running backward carry a token, and about one place
            // in 4n carries one more.
            let tokens = u32::from(from >= to) + u32::from(next(4 * n as u64) == 0);
            g.add_place(ids[from], ids[to], tokens, 1.0);
        }
        let mut prev = ids[next(n as u64) as usize];
        for i in 0..next(4) {
            let t = g.add_transition(format!("x{i}"));
            g.add_place(prev, t, 0, 1.0);
            prev = t;
        }
        g
    }

    #[test]
    fn bitset_closure_matches_the_per_target_search() {
        let mut unsafe_graphs = 0;
        for seed in 0..2_000 {
            let g = random_live_graph(seed);
            let adj = out_places(&g);
            let order = token_free_order(&adj).expect("the generator draws live graphs");
            let lowest = lowest_overloaded_place(&g, &adj, &order);
            let per_target = multi_token_cycle_per_target(&g, &adj);
            assert_eq!(
                lowest,
                per_target.as_ref().map(|(id, _)| *id),
                "seed {seed}"
            );
            assert_eq!(
                multi_token_cycle(&g),
                per_target.map(|(_, witness)| witness),
                "seed {seed}"
            );
            unsafe_graphs += usize::from(lowest.is_some());
        }
        // Both verdicts occur often enough to compare.
        assert!(
            (200..1_800).contains(&unsafe_graphs),
            "{unsafe_graphs} unsafe"
        );
    }

    #[test]
    fn token_sums_saturate_instead_of_wrapping() {
        // A live, unsafe two-transition ring whose cycle carries
        // u32::MAX + 1 tokens: the sum saturates, so the witness verifies
        // and still reports the cycle as overloaded.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a");
        let b = g.add_transition("b");
        g.add_place(a, b, u32::MAX, 1.0);
        g.add_place(b, a, 1, 1.0);
        assert!(is_live(&g));
        let witness = multi_token_cycle(&g).expect("the ring is unsafe");
        assert!(witness.verify(&g));
        assert!(witness.tokens >= 2, "{witness:?}");
        assert!(!is_safe(&g));
    }

    #[test]
    fn empty_graph_is_trivially_fine() {
        let g = MarkedGraph::new();
        assert!(is_live(&g));
        assert!(is_safe(&g));
        assert!(is_strongly_connected(&g));
    }
}
