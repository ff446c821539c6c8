//! Benchmarks of the desynchronization flow itself: how long the
//! transformation takes on circuits of increasing size, and how much of it
//! the staged pipeline skips when resuming after a knob change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use desync_circuits::{DlxConfig, LinearPipelineConfig};
use desync_core::{DesyncFlow, DesyncOptions, Desynchronizer, Protocol};
use desync_netlist::CellLibrary;

fn bench_flow(c: &mut Criterion) {
    let library = CellLibrary::generic_90nm();
    let mut group = c.benchmark_group("desynchronize");
    for &stages in &[4usize, 8, 16] {
        let netlist = LinearPipelineConfig::balanced(stages, 16, 4)
            .generate()
            .expect("pipeline generation");
        group.bench_with_input(
            BenchmarkId::new("pipeline", stages),
            &netlist,
            |b, netlist| {
                b.iter(|| {
                    Desynchronizer::new(netlist, &library, DesyncOptions::default())
                        .run()
                        .expect("flow")
                })
            },
        );
    }
    let dlx = DlxConfig::default().generate().expect("dlx generation");
    group.sample_size(10);
    group.bench_function("dlx16", |b| {
        b.iter(|| {
            Desynchronizer::new(&dlx, &library, DesyncOptions::default())
                .run()
                .expect("flow")
        })
    });
    group.finish();
}

/// The staged pipeline's resume advantage: a protocol change re-runs only
/// controller synthesis, versus a full from-scratch run. The toggles below
/// revisit two option sets, so after the first visit of each the flow's
/// private store serves the resumed stages and only assembly remains.
fn bench_staged_resume(c: &mut Criterion) {
    let library = CellLibrary::generic_90nm();
    let dlx = DlxConfig::default().generate().expect("dlx generation");
    let mut group = c.benchmark_group("staged_resume");
    group.sample_size(10);

    group.bench_function("full_run", |b| {
        b.iter(|| {
            DesyncFlow::new(&dlx, &library, DesyncOptions::default())
                .expect("valid options")
                .design()
                .expect("flow")
        })
    });

    let mut flow =
        DesyncFlow::new(&dlx, &library, DesyncOptions::default()).expect("valid options");
    flow.design().expect("flow");
    group.bench_function("protocol_change_resume", |b| {
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let protocol = if toggle {
                Protocol::NonOverlapping
            } else {
                Protocol::FullyDecoupled
            };
            flow.set_protocol(protocol).expect("valid options");
            flow.design().expect("flow")
        })
    });

    group.bench_function("margin_change_resume", |b| {
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let margin = if toggle { 0.10 } else { 0.05 };
            flow.set_margin(margin).expect("valid options");
            flow.design().expect("flow")
        })
    });

    // Serial vs parallel matched-delay sizing on the timing stage alone.
    for parallel in [false, true] {
        let options = DesyncOptions::default().with_parallel_sizing(parallel);
        group.bench_function(
            BenchmarkId::new(
                "matched_delay_sizing",
                if parallel { "parallel" } else { "serial" },
            ),
            |b| {
                b.iter(|| {
                    let mut flow = DesyncFlow::new(&dlx, &library, options).expect("valid options");
                    flow.timed().expect("timing").total_delay_cells()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_flow, bench_staged_resume);
criterion_main!(benches);
