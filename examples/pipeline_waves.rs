//! Figure 3 of the paper as ASCII art: the latch-enable waveforms of a
//! desynchronized linear pipeline, showing that control pulses of adjacent
//! stages overlap while data never gets overwritten.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pipeline_waves
//! ```

use desync::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-stage pipeline named after the paper's latches A, B, C, D.
    let netlist = LinearPipelineConfig::balanced(4, 4, 4).generate()?;
    let library = CellLibrary::generic_90nm();
    let design = DesyncFlow::new(&netlist, &library, DesyncOptions::default())?.design()?;

    println!("{}\n", design.summary());
    println!("composed control marked graph (paper Figure 3, bottom):");
    print!("{}", design.control_model().graph().render());

    // Drive the latch datapath with the enable schedule of the control model
    // and record the enable waveforms.
    let bundle = design.enable_schedule(8, design.synchronous_period_ps() + 1_000.0);
    let latch_netlist = design.latch_netlist();
    let mut tb = AsyncBench::<Value>::new(latch_netlist, &library, SimConfig::default());
    let enable_names: Vec<String> = design
        .latch_design()
        .cluster_enables
        .iter()
        .flat_map(|(_, m, s)| [m.clone(), s.clone()])
        .collect();
    let name_refs: Vec<&str> = enable_names.iter().map(String::as_str).collect();
    tb.watch_named(&name_refs);
    let run = tb.run(bundle.horizon_ps + 2_000.0, 8, &bundle.schedule, &[]);

    // Render the first few handshake cycles as an ASCII timing diagram
    // (# = latch transparent, _ = opaque).
    let start = design.synchronous_period_ps();
    let end = start + 6.0 * design.cycle_time_ps();
    let step = (end - start) / 96.0;
    println!(
        "\nlatch enable waveforms ({}..{} ps, one column = {:.0} ps):\n",
        start as u64, end as u64, step
    );
    for name in &enable_names {
        if let Some(wave) = run.waveforms.get(name) {
            println!("{name:>22} {}", wave.ascii(start, end, step));
        }
    }
    println!(
        "\ncycle time from the marked-graph model: {:.1} ps (synchronous clock period: {:.1} ps)",
        design.cycle_time_ps(),
        design.synchronous_period_ps()
    );
    println!(
        "total enable transitions observed: {}",
        run.activity.total_transitions()
    );
    Ok(())
}
