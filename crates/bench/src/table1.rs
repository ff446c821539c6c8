//! Experiment E1: reproduction of the paper's Table 1 — cycle time, dynamic
//! power and area of the synchronous versus the desynchronized DLX.

use crate::workloads::{dlx_program, dlx_stimulus};
use desync_circuits::DlxConfig;
use desync_core::{DesyncFlow, DesyncOptions, FlowReport};
use desync_netlist::{CellLibrary, Value};
use desync_power::{
    dynamic_power_mw, leakage_power_mw, AreaReport, ClockTree, ClockTreeConfig, PowerReport,
};
use desync_sim::{SimConfig, SyncBench};
use desync_sta::{Sta, TimingConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of the Table 1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Config {
    /// Data-path width of the generated DLX. The paper's DLX is a full
    /// 32-bit processor; the default here (32) keeps the relative overhead
    /// of controllers and matched delays in a realistic regime while staying
    /// fast to simulate.
    pub width: usize,
    /// Number of instructions simulated for the power measurement.
    pub cycles: usize,
    /// Desynchronization options (protocol, margin, clustering).
    pub options: DesyncOptions,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            width: 32,
            cycles: 48,
            options: DesyncOptions::default(),
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Metric name as printed in the paper ("Cycle Time", ...).
    pub metric: String,
    /// Value for the synchronous DLX.
    pub sync: f64,
    /// Value for the desynchronized DLX.
    pub desync: f64,
    /// Unit string.
    pub unit: String,
}

impl Table1Row {
    /// Desynchronized / synchronous ratio.
    pub fn ratio(&self) -> f64 {
        if self.sync == 0.0 {
            f64::NAN
        } else {
            self.desync / self.sync
        }
    }
}

/// The full Table 1 reproduction, plus the flow-equivalence verdict of the
/// underlying co-simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// The three rows of the paper's table.
    pub rows: Vec<Table1Row>,
    /// Whether the two executions used for the power numbers were flow
    /// equivalent (they must be, otherwise the comparison is meaningless).
    pub flow_equivalent: bool,
    /// Number of register captures compared by the equivalence check.
    pub compared_cycles: usize,
    /// The configuration used.
    pub config: Table1Config,
    /// Per-stage run counts and wall times of the desynchronization flow.
    pub flow_report: FlowReport,
}

impl Table1 {
    /// The row for a given metric name.
    pub fn row(&self, metric: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.metric == metric)
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 — Sync. vs De-Synchronized DLX (width {}, {} instructions)",
            self.config.width, self.config.cycles
        )?;
        writeln!(
            f,
            "{:<20} {:>14} {:>16} {:>8}",
            "", "Sync. DLX", "De-Sync. DLX", "ratio"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<20} {:>11.2} {:<3} {:>13.2} {:<3} {:>7.3}",
                row.metric,
                row.sync,
                row.unit,
                row.desync,
                row.unit,
                row.ratio()
            )?;
        }
        write!(
            f,
            "flow equivalent over {} captures: {}",
            self.compared_cycles, self.flow_equivalent
        )
    }
}

/// Runs the Table 1 experiment.
///
/// # Panics
///
/// Panics if the DLX generation or the desynchronization flow fails — both
/// indicate a bug rather than a configuration problem.
pub fn run_table1(config: Table1Config) -> Table1 {
    let netlist = DlxConfig {
        width: config.width,
        name: format!("dlx{}", config.width),
    }
    .generate()
    .expect("DLX generation");
    let library = CellLibrary::generic_90nm();
    let program = dlx_program();
    let stimulus = dlx_stimulus(&netlist, &program);

    // ---- synchronous baseline -----------------------------------------
    let sta = Sta::new(&netlist, &library, TimingConfig::default());
    let sync_period = sta.clock_period();
    let sync_tb = SyncBench::<Value>::new(&netlist, &library, SimConfig::default())
        .expect("DLX has a single clock");
    let sync_run = sync_tb.run(config.cycles, sync_period, &stimulus);
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

    // ---- desynchronized design ------------------------------------------
    let mut flow = DesyncFlow::new(&netlist, &library, config.options).expect("valid flow options");
    flow.set_verification(stimulus, config.cycles);
    let report = flow.verified().expect("co-simulation").clone();
    let design = flow.designed().expect("desynchronization flow");
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

    let rows = vec![
        Table1Row {
            metric: "Cycle Time".into(),
            sync: sync_period / 1000.0,
            desync: design.cycle_time_ps() / 1000.0,
            unit: "ns".into(),
        },
        Table1Row {
            metric: "Dyn. Power Cons.".into(),
            sync: sync_power.total_dynamic_mw(),
            desync: desync_power.total_dynamic_mw(),
            unit: "mW".into(),
        },
        Table1Row {
            metric: "Area".into(),
            sync: sync_area.total_um2(),
            desync: desync_area.total_um2(),
            unit: "um2".into(),
        },
    ];
    Table1 {
        rows,
        flow_equivalent: report.is_equivalent(),
        compared_cycles: report.compared_cycles,
        config,
        flow_report: flow.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_the_papers_shape() {
        // A reduced configuration keeps the test fast while still exercising
        // the full pipeline of generators, flow, simulation and models.
        let table = run_table1(Table1Config {
            width: 16,
            cycles: 16,
            options: DesyncOptions::default(),
        });
        assert!(table.flow_equivalent);
        assert_eq!(table.rows.len(), 3);
        let cycle = table.row("Cycle Time").unwrap();
        let power = table.row("Dyn. Power Cons.").unwrap();
        let area = table.row("Area").unwrap();
        // Shape of the paper's result: the desynchronized design is close to
        // the synchronous one — slightly slower, comparable power, slightly
        // larger.
        assert!(
            cycle.ratio() > 1.0 && cycle.ratio() < 1.35,
            "cycle {}",
            cycle.ratio()
        );
        assert!(
            power.ratio() > 0.5 && power.ratio() < 1.5,
            "power {}",
            power.ratio()
        );
        assert!(
            area.ratio() > 1.0 && area.ratio() < 1.4,
            "area {}",
            area.ratio()
        );
        let text = table.to_string();
        assert!(text.contains("Cycle Time"));
        assert!(text.contains("De-Sync"));
        assert!(table.row("nope").is_none());
        // The staged flow ran every stage exactly once for one table.
        assert!(table.flow_report.stages.iter().all(|s| s.runs == 1));
    }
}
