//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fabric-build|stock-verify|tenant-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each run is one process measuring one workload for `--seconds`. It
//! prints a report (every metric by name and unit, the check results and
//! the deterministic counters) and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs carry the
//! end-to-end metrics; traced runs (`--trace 1`) record a span around every
//! public call into a layer, write the spans to `--trace-out` at exit, and
//! carry the per-layer metrics. See `perfbench/README.md`.

mod fabric;
mod probe;
mod stock;
mod tenant;
mod trace;
mod util;

use std::fmt::Write as _;
use util::Outcome;

/// End-to-end metrics of untraced runs: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of traced runs: (name, unit).
const PER_LAYER: [(&str, &str); 43] = [
    ("edif.parse_ms", "ms"),
    ("lint.design_ms", "ms"),
    ("pipeline.clustered_ms", "ms"),
    ("pipeline.latched_ms", "ms"),
    ("pipeline.timed_ms", "ms"),
    ("pipeline.controlled_ms", "ms"),
    ("pipeline.assemble_ms", "ms"),
    ("sta.build_ms", "ms"),
    ("sta.arrival_ms", "ms"),
    ("mg.cycle_time_ms", "ms"),
    ("mg.is_safe_ms", "ms"),
    ("mg.is_live_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("verify.sync_ref_ms", "ms"),
    ("verify.schedule_ms", "ms"),
    ("verify.scalar_ms", "ms"),
    ("verify.packed_sync_ref_ms", "ms"),
    ("verify.packed_ms", "ms"),
    ("sim.packed_lane_us", "us"),
    ("submit.admit_us", "us"),
    ("traced.p50_ms", "ms"),
    ("traced.throughput_per_s", "1/s"),
    ("cluster.count", "count"),
    ("cluster.edges", "count"),
    ("mg.transitions", "count"),
    ("mg.places", "count"),
    ("sim.events", "count"),
    ("sim.word_events", "count"),
    ("sim.lane_events", "count"),
    ("sim.live_lanes_per_word", "lanes/word"),
    ("lint.rejections", "count"),
    ("store.hit_ratio", "fraction"),
    ("store.evictions", "count"),
    ("store.coalesced", "count"),
    ("store.resident_weight", "weight"),
    ("store.sync_run_misses", "count"),
    ("store.compiled_model_misses", "count"),
    ("store.sizing_misses", "count"),
    ("submit.wait_ticks_mean", "ticks"),
    ("submit.wait_ticks_max", "ticks"),
    ("submit.high_water", "count"),
    ("submit.shed", "count"),
    ("submit.aged_promotions", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            "--trace-out" => trace_out = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut out = match args.workload.as_str() {
        "fabric-build" => fabric::run(args.seed, args.seconds),
        "stock-verify" => stock::run(args.seed, args.seconds),
        "tenant-mix" => tenant::run(args.seed, args.seconds),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        probe::record_layer_times(&mut out);
        for (from, to) in [
            ("p50_ms", "traced.p50_ms"),
            ("throughput_per_s", "traced.throughput_per_s"),
        ] {
            if let Some(&(value, unit)) = out.metrics.get(from) {
                out.set(to, value, unit);
            }
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = trace::write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    for (name, (value, unit)) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&out, selected) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The result line: exactly the selected metrics, each as measured.
fn result_line(out: &Outcome, selected: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in selected.iter().enumerate() {
        let &(value, measured_unit) = out
            .metrics
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if measured_unit != *unit || !value.is_finite() {
            return Err(format!(
                "metric {name} = {value} {measured_unit}, want a finite {unit}"
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    ))
}
