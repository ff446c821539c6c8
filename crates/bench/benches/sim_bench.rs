//! Criterion benchmarks of the event-driven gate-level simulator in its
//! synchronous and desynchronized modes.

use criterion::{criterion_group, criterion_main, Criterion};
use desync_bench::workloads::{bus_stimulus, dlx_program, dlx_stimulus};
use desync_circuits::{DlxConfig, LinearPipelineConfig};
use desync_core::{verify_flow_equivalence, DesyncOptions, Desynchronizer};
use desync_netlist::CellLibrary;
use desync_sim::{SimConfig, SyncTestbench};
use desync_sta::{Sta, TimingConfig};

fn bench_sim(c: &mut Criterion) {
    let library = CellLibrary::generic_90nm();

    let pipeline = LinearPipelineConfig::balanced(8, 16, 4)
        .generate()
        .expect("pipeline generation");
    let period = Sta::new(&pipeline, &library, TimingConfig::default()).clock_period();
    let stimulus = bus_stimulus(&pipeline, "din", 16, 3);
    c.bench_function("sync_sim_pipeline_64cycles", |b| {
        b.iter(|| {
            let tb = SyncTestbench::new(&pipeline, &library, SimConfig::default())
                .expect("single clock");
            tb.run(64, period, &stimulus)
        })
    });

    let dlx = DlxConfig::default().generate().expect("dlx generation");
    let dlx_period = Sta::new(&dlx, &library, TimingConfig::default()).clock_period();
    let dlx_stim = dlx_stimulus(&dlx, &dlx_program());
    let mut group = c.benchmark_group("dlx_sim");
    group.sample_size(10);
    group.bench_function("sync_32cycles", |b| {
        b.iter(|| {
            let tb =
                SyncTestbench::new(&dlx, &library, SimConfig::default()).expect("single clock");
            tb.run(32, dlx_period, &dlx_stim)
        })
    });
    let design = Desynchronizer::new(&dlx, &library, DesyncOptions::default())
        .run()
        .expect("flow");
    group.bench_function("cosim_equivalence_16cycles", |b| {
        b.iter(|| {
            verify_flow_equivalence(&dlx, &design, &library, &dlx_stim, 16).expect("co-simulation")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
