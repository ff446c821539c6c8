//! The paper's case study: desynchronize a DLX processor and compare cycle
//! time, dynamic power and area against the synchronous baseline
//! (paper Table 1).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dlx_processor
//! ```

use desync::circuits::dlx::{encode_instruction, instruction_nets};
use desync::power::ClockTreeConfig;
use desync::prelude::*;

/// A small instruction loop exercising the ALU, immediates, loads and stores.
fn instruction_stream(netlist: &Netlist) -> VectorSource {
    let nets = instruction_nets(netlist);
    let program: Vec<u16> = vec![
        encode_instruction(0b101, 1, 0, 0, 5), // ADDI r1, r0, 5
        encode_instruction(0b101, 2, 1, 0, 3), // ADDI r2, r1, 3
        encode_instruction(0b000, 3, 1, 2, 0), // ADD  r3, r1, r2
        encode_instruction(0b001, 4, 3, 1, 0), // SUB  r4, r3, r1
        encode_instruction(0b010, 5, 3, 2, 0), // AND  r5, r3, r2
        encode_instruction(0b011, 6, 5, 4, 0), // OR   r6, r5, r4
        encode_instruction(0b100, 7, 6, 3, 0), // XOR  r7, r6, r3
        encode_instruction(0b111, 0, 2, 7, 1), // SW   [r2+1], r7
        encode_instruction(0b110, 1, 2, 0, 1), // LW   r1, [r2+1]
        encode_instruction(0b000, 2, 1, 7, 0), // ADD  r2, r1, r7
    ];
    VectorSource::sequence(
        program
            .iter()
            .map(|&word| {
                nets.iter()
                    .enumerate()
                    .map(|(i, &net)| (net, Value::from_bool(word >> i & 1 == 1)))
                    .collect()
            })
            .collect(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycles = 48;
    let netlist = DlxConfig::default().generate()?;
    let library = CellLibrary::generic_90nm();
    println!("synthesized DLX:\n{}\n", netlist.summary());

    // ----- synchronous baseline ---------------------------------------
    let sta = Sta::new(&netlist, &library, TimingConfig::default());
    let sync_period = sta.clock_period();
    let stimulus = instruction_stream(&netlist);
    let sync_tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default())?;
    let sync_run = sync_tb.run(cycles, sync_period, &stimulus);
    let clock_tree = ClockTree::synthesize(
        netlist.num_flip_flops(),
        &library,
        ClockTreeConfig::default(),
    );
    let sync_power = PowerReport::new(
        dynamic_power_mw(&netlist, &library, &sync_run.activity),
        clock_tree.power_mw(sync_period),
        leakage_power_mw(&netlist, &library),
    );
    let sync_area = AreaReport::of_netlist(&netlist, &library).with_clock_tree(clock_tree.area_um2);

    // ----- desynchronized design ---------------------------------------
    let mut flow = DesyncFlow::new(&netlist, &library, DesyncOptions::default())?;
    flow.set_verification(stimulus.clone(), cycles);
    let report = flow.verified()?.clone();
    let design = flow.design()?;
    let desync_power = PowerReport::new(
        dynamic_power_mw(design.latch_netlist(), &library, &report.async_run.activity)
            + design.overhead_power_mw(&library),
        0.0,
        leakage_power_mw(design.latch_netlist(), &library)
            + leakage_power_mw(design.overhead_netlist(), &library),
    );
    let mut desync_area = AreaReport::of_netlist(design.latch_netlist(), &library);
    let overhead_area = AreaReport::of_netlist(design.overhead_netlist(), &library);
    desync_area.controller_um2 += overhead_area.controller_um2;
    desync_area.matched_delay_um2 += overhead_area.matched_delay_um2;

    println!("{}\n", design.summary());
    println!(
        "flow equivalence over {} instructions: {}",
        report.compared_cycles,
        report.is_equivalent()
    );

    // ----- Table 1 -----------------------------------------------------
    println!("\n                       Sync. DLX      De-Sync. DLX     ratio");
    println!(
        "Cycle Time          {:>10.2} ns   {:>12.2} ns   {:>6.3}",
        sync_period / 1000.0,
        design.cycle_time_ps() / 1000.0,
        design.cycle_time_ps() / sync_period
    );
    println!(
        "Dyn. Power Cons.    {:>10.2} mW   {:>12.2} mW   {:>6.3}",
        sync_power.total_dynamic_mw(),
        desync_power.total_dynamic_mw(),
        desync_power.total_dynamic_mw() / sync_power.total_dynamic_mw()
    );
    println!(
        "Area                {:>10.0} um2  {:>12.0} um2  {:>6.3}",
        sync_area.total_um2(),
        desync_area.total_um2(),
        desync_area.total_um2() / sync_area.total_um2()
    );
    println!(
        "\n(paper, post-layout: 4.4 ns vs 4.45 ns, 70.9 mW vs 71.2 mW, 372,656 vs 378,058 um2)"
    );

    // Where the flow spent its time, stage by stage.
    println!("\n{}", flow.report());
    Ok(())
}
