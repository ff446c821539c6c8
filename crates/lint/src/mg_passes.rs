//! The control-network pass suite (`MG001`–`MG003`).
//!
//! These passes turn the structural marked-graph theorems of the
//! desynchronization paper into witness-carrying diagnostics: instead of a
//! bare `is_live() == false`, the report names the exact token-free cycle
//! (as a sequence of transition labels) that proves the control network can
//! deadlock.

use crate::diagnostic::{Diagnostic, LintCode, LintReport};
use desync_mg::analysis::{multi_token_cycle, strongly_connected_components, token_free_cycle};
use desync_mg::{MarkedGraph, PlaceId};
use desync_netlist::Symbol;

/// Transition labels along a cycle of places, interned for the diagnostic.
fn cycle_labels(graph: &MarkedGraph, places: &[PlaceId]) -> Vec<Symbol> {
    places
        .iter()
        .map(|&p| Symbol::from(graph.transition(graph.place(p).from).label.as_str()))
        .collect()
}

/// Runs the control-network pass suite on a marked graph.
///
/// An empty graph is vacuously clean (the flow-precondition pass `FL001`
/// reports designs with nothing to control). Witnesses are canonical: the
/// underlying analyses traverse in id order and rotate cycles to their
/// minimum place id, so the same graph always produces the same report.
pub fn lint_marked_graph(graph: &MarkedGraph) -> LintReport {
    let mut report = LintReport::new();
    if graph.is_empty() {
        return report;
    }

    // MG001: a token-free cycle proves the network is not live (Commoner).
    if let Some(witness) = token_free_cycle(graph) {
        let labels = cycle_labels(graph, &witness.places);
        report.push(
            Diagnostic::new(
                LintCode::TokenFreeCycle,
                labels[0],
                format!(
                    "token-free cycle through {} places: the control network can deadlock",
                    witness.places.len()
                ),
            )
            .with_witness(labels),
        );
    }

    // MG002: a cycle carrying more than one token proves the network is not
    // safe (for live graphs).
    if let Some(witness) = multi_token_cycle(graph) {
        let labels = cycle_labels(graph, &witness.places);
        report.push(
            Diagnostic::new(
                LintCode::MultiTokenCycle,
                labels[0],
                format!(
                    "cycle through {} places carries {} tokens: handshake places can overflow",
                    witness.places.len(),
                    witness.tokens
                ),
            )
            .with_witness(labels),
        );
    }

    // MG003: component report when the graph is not strongly connected. The
    // witness lists the transitions of the smallest component — the most
    // actionable fragment to reconnect.
    let components = strongly_connected_components(graph);
    if components.len() > 1 {
        let smallest = components
            .iter()
            .min_by_key(|c| (c.len(), c[0]))
            .expect("at least two components");
        let labels: Vec<Symbol> = smallest
            .iter()
            .map(|&t| Symbol::from(graph.transition(t).label.as_str()))
            .collect();
        report.push(
            Diagnostic::new(
                LintCode::NotStronglyConnected,
                labels[0],
                format!(
                    "control network splits into {} strongly connected components; \
                     smallest has {} transition(s)",
                    components.len(),
                    smallest.len()
                ),
            )
            .with_witness(labels),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring a -> b -> c -> a with the given tokens per place.
    fn ring(tokens: [u32; 3]) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a+");
        let b = g.add_transition("b+");
        let c = g.add_transition("c+");
        g.add_place(a, b, tokens[0], 1.0);
        g.add_place(b, c, tokens[1], 1.0);
        g.add_place(c, a, tokens[2], 1.0);
        g
    }

    #[test]
    fn live_safe_ring_is_clean() {
        let report = lint_marked_graph(&ring([1, 0, 0]));
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(lint_marked_graph(&MarkedGraph::new()).is_clean());
    }

    #[test]
    fn token_free_ring_reports_the_cycle_labels() {
        let report = lint_marked_graph(&ring([0, 0, 0]));
        let d = report.find(LintCode::TokenFreeCycle).expect("MG001 fires");
        let labels: Vec<_> = d.witness.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, vec!["a+", "b+", "c+"], "canonical label order");
        assert_eq!(d.subject.as_str(), "a+");
        assert!(!report.is_clean());
    }

    #[test]
    fn overloaded_ring_reports_the_token_count() {
        let report = lint_marked_graph(&ring([1, 1, 1]));
        let d = report.find(LintCode::MultiTokenCycle).expect("MG002 fires");
        assert!(d.detail.contains("carries 3 tokens"), "{}", d.detail);
        assert_eq!(d.witness.len(), 3);
        assert!(
            !report.has(LintCode::TokenFreeCycle),
            "the overloaded ring is live"
        );
    }

    #[test]
    fn overloaded_ring_past_u32_tokens_reports_a_nonzero_count() {
        // u32::MAX + 1 tokens on the cycle: the count saturates instead of
        // wrapping to 0.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("a+");
        let b = g.add_transition("b+");
        g.add_place(a, b, u32::MAX, 1.0);
        g.add_place(b, a, 1, 1.0);
        let report = lint_marked_graph(&g);
        let d = report.find(LintCode::MultiTokenCycle).expect("MG002 fires");
        assert!(!d.detail.contains("carries 0 tokens"), "{}", d.detail);
    }

    #[test]
    fn disconnected_graph_reports_the_smallest_component() {
        let mut g = ring([1, 0, 0]);
        let d = g.add_transition("d+");
        let a = g.find_transition("a+").unwrap();
        g.add_place(a, d, 1, 1.0);
        let report = lint_marked_graph(&g);
        let diag = report
            .find(LintCode::NotStronglyConnected)
            .expect("MG003 fires");
        let labels: Vec<_> = diag.witness.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, vec!["d+"], "the dangling transition is the witness");
        assert!(diag.detail.contains("2 strongly connected components"));
    }

    #[test]
    fn verdicts_are_bit_identical_across_runs() {
        let g = ring([0, 2, 0]);
        let first = lint_marked_graph(&g);
        for _ in 0..20 {
            assert_eq!(lint_marked_graph(&g), first);
        }
    }
}
