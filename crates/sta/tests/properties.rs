//! Property-based tests of the static timing analyzer and the matched-delay
//! sizing: matched delays always cover the true critical path, arrival times
//! are monotone along paths, the clock period dominates every stage, and the
//! forward-cone walk reproduces the full-netlist walk bit for bit.

use desync_netlist::{CellKind, CellLibrary, NetId, Netlist};
use desync_sta::{ConeArrivals, MatchedDelay, Sta, TimingConfig};
use proptest::prelude::*;

/// A random acyclic pipeline-ish netlist (same generator idea as the netlist
/// crate's property tests, kept local so each crate's tests are
/// self-contained).
fn random_netlist(seed: u64, gates: usize) -> Netlist {
    let mut n = Netlist::new(format!("sta_prop_{seed}"));
    let clk = n.add_input("clk");
    let mut nets = vec![n.add_input("i0"), n.add_input("i1")];
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Not,
        CellKind::Buf,
    ];
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for g in 0..gates {
        let kind = kinds[(next() as usize) % kinds.len()];
        let arity = kind.fixed_arity().unwrap_or(2);
        let inputs: Vec<_> = (0..arity)
            .map(|_| nets[(next() as usize) % nets.len()])
            .collect();
        let out = n.add_net(format!("w{g}"));
        n.add_gate(format!("g{g}"), kind, &inputs, out).unwrap();
        nets.push(out);
        if next() % 3 == 0 {
            let q = n.add_net(format!("q{g}"));
            n.add_dff(format!("r{g}"), out, clk, q).unwrap();
            nets.push(q);
        }
    }
    n.mark_output(*nets.last().unwrap());
    n
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Matched delays sized by the analyzer always cover the combinational
    /// delay they were sized for, for any margin.
    #[test]
    fn matched_delay_always_covers(delay in 0.0f64..50_000.0, margin in 0.0f64..1.0) {
        let library = CellLibrary::generic_90nm();
        let matched = MatchedDelay::for_delay(delay, margin, &library);
        prop_assert!(matched.covers_logic());
        prop_assert!(matched.achieved_ps + 1e-9 >= matched.target_ps);
        prop_assert!(matched.num_cells >= 1);
        prop_assert!(matched.area_um2(&library) > 0.0);
    }

    /// More margin never means fewer delay cells.
    #[test]
    fn matched_delay_monotone_in_margin(delay in 1.0f64..20_000.0, m1 in 0.0f64..0.5, extra in 0.0f64..0.5) {
        let library = CellLibrary::generic_90nm();
        let a = MatchedDelay::for_delay(delay, m1, &library);
        let b = MatchedDelay::for_delay(delay, m1 + extra, &library);
        prop_assert!(b.num_cells >= a.num_cells);
        prop_assert!(b.achieved_ps + 1e-9 >= a.achieved_ps);
    }

    /// On random netlists: the clock period is clock-to-Q plus the worst
    /// stage or output delay plus setup, bit for bit; the critical path
    /// delay equals the worst endpoint arrival; and arrival times never
    /// decrease when sources are added.
    #[test]
    fn sta_invariants_on_random_netlists(seed in 0u64..3000, gates in 1usize..30) {
        let netlist = random_netlist(seed, gates);
        prop_assert!(netlist.validate().is_ok());
        let library = CellLibrary::generic_90nm();
        let config = TimingConfig::default();
        let sta = Sta::new(&netlist, &library, config);

        let stages = sta.stage_delays();
        let worst_stage = stages.iter().map(|s| s.delay_ps).fold(0.0, f64::max);
        let period = config.clk_to_q_ps + worst_stage.max(sta.output_delay()) + config.setup_ps;
        prop_assert_eq!(sta.clock_period().to_bits(), period.to_bits());

        let critical = sta.critical_path();
        prop_assert!(critical.delay_ps + 1e-9 >= worst_stage);
        prop_assert!(critical.delay_ps + 1e-9 >= sta.output_delay().min(critical.delay_ps));

        // Arrival monotonicity: restricting the sources can only lower (or
        // remove) arrivals.
        let all_sources = sta.default_sources();
        if let Some((&first, rest)) = all_sources.split_first() {
            let restricted = sta.arrival_from(&[first]);
            let full = sta.arrival_from(&all_sources);
            for (a, b) in restricted.iter().zip(full.iter()) {
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert!(b + 1e-9 >= *a);
                }
            }
            let _ = rest;
        }

        // Every matched delay sized from a stage covers that stage.
        for stage in &stages {
            let matched = MatchedDelay::for_delay(stage.delay_ps, 0.10, &library);
            prop_assert!(matched.achieved_ps + 1e-9 >= stage.delay_ps);
        }
    }

    /// The cone walk gives `arrival_from`'s arrivals on every net: the same
    /// bits where it reaches, `None` where it does not. One buffer serves
    /// four consecutive walks over different random source sets, so an
    /// entry left stale by an earlier walk fails the comparison.
    #[test]
    fn cone_walk_equals_the_full_walk(seed in 0u64..3000, gates in 1usize..60, pick in 1u64..1_000_000) {
        let netlist = random_netlist(seed, gates);
        let library = CellLibrary::generic_90nm();
        let sta = Sta::new(&netlist, &library, TimingConfig::default());
        let nets: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
        let mut state = pick;
        let mut cone = ConeArrivals::default();
        for walk in 0..4 {
            let sources: Vec<NetId> = nets
                .iter()
                .copied()
                .filter(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 4 == 0
                })
                .collect();
            let full = sta.arrival_from(&sources);
            sta.cone_arrival_from(&sources, &mut cone);
            for &net in &nets {
                prop_assert_eq!(
                    cone.get(net).map(f64::to_bits),
                    full[net.index()].map(f64::to_bits),
                    "walk {} from {:?}, net {:?}", walk, sources, net
                );
            }
        }
    }

    /// Cell delays grow with fan-out and are always positive.
    #[test]
    fn cell_delay_positive_and_monotone(seed in 0u64..3000) {
        let netlist = random_netlist(seed, 10);
        let library = CellLibrary::generic_90nm();
        let sta = Sta::new(&netlist, &library, TimingConfig::default());
        for (id, cell) in netlist.cells() {
            if cell.kind.is_combinational() {
                prop_assert!(sta.cell_delay_ps(id) > 0.0);
            }
        }
    }
}
