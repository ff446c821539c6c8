//! Verification hot-path sweep: the full protocol × margin grid submitted
//! to a [`desync_core::DesyncService`] as first-class sweep requests, run
//! once on a single worker (serial baseline) and once on 4 workers, with
//! per-point reports cross-checked bit for bit — then a third time as a
//! 64-seed packed campaign through the bit-parallel kernel, with probe
//! lanes cross-checked against detached scalar flows. Writes the headline
//! numbers to `BENCH_sim.json` (schema `desync-verify-hot/3`, see
//! ROADMAP.md) — word-level and scalar-equivalent lane throughput are
//! reported separately.
//!
//! ```text
//! cargo run --release -p desync-bench --bin verify_hot
//! ```

use desync_bench::verify_hot::{run_verify_hot, CAMPAIGN_LANE_EVENTS, CAMPAIGN_WORD_EVENTS};
use desync_core::ArtifactKind;

fn main() {
    let report = run_verify_hot();
    println!("{report}");
    // Hard properties of the sweep (checked in CI):
    // the 1-worker and 4-worker sweeps (and a fresh detached flow)
    // must agree bit for bit, and shared artifacts must be computed
    // exactly once on the parallel engine — one sync reference
    // simulation, one compiled datapath model (plus one sync model) and
    // one sizing analysis per design, everything else served.
    assert!(
        report.bit_identical_to_fresh,
        "serial, parallel and fresh detached verification must agree bit for bit"
    );
    let engine = &report.engine_report;
    assert_eq!(
        engine.kind(ArtifactKind::SyncRun).misses,
        2,
        "each design must simulate its sync reference exactly once"
    );
    assert_eq!(
        engine.kind(ArtifactKind::SyncRun).hits,
        report.points.len() - 2,
        "every other sweep point must reuse the cached sync reference"
    );
    assert_eq!(
        engine.kind(ArtifactKind::Compiled).misses,
        4,
        "exactly one sync + one datapath model compile per design"
    );
    assert!(
        report.compile_reuses >= report.points.len() - 2,
        "sweep points must bind onto shared compiled models"
    );
    assert_eq!(
        engine.kind(ArtifactKind::Sizing).misses,
        2,
        "exactly one arrival analysis per design"
    );
    // Packed campaign gates: probe lanes must match detached scalar flows
    // bit for bit, and the campaign must commit exactly its pinned word and
    // lane events. Both counts are deterministic; the packed/scalar
    // wall-clock ratio depends on the host, so it is printed and written to
    // BENCH_sim.json, not gated.
    assert!(
        report.bit_identical_packed,
        "probed campaign lanes must be bit-identical to scalar flows"
    );
    assert_eq!(
        (report.campaign_word_events, report.campaign_lane_events),
        (CAMPAIGN_WORD_EVENTS, CAMPAIGN_LANE_EVENTS),
        "packed campaign word and lane events drifted from the pinned counts"
    );
    let json = report.to_json();
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json:\n{json}");
}
