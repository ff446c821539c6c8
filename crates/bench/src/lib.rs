//! Benchmark harness reproducing every table and figure of
//! "From synchronous to asynchronous: an automatic approach" (DATE 2004).
//!
//! Each experiment is a plain function returning a printable report, so the
//! same code backs the `cargo run --bin ...` reproduction binaries and the
//! tests:
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Table 1 (Sync vs De-Sync DLX) | [`table1::run_table1`] | `table1_dlx` |
//! | Figure 1 (FF → latch conversion) | [`figures::figure1`] | `fig1_conversion` |
//! | Figure 2 (circuit + marked-graph model) | [`figures::figure2`] | `fig2_model` |
//! | Figure 3 (pipeline timing + marked graph) | [`figures::figure3`] | `fig3_pipeline` |
//! | Figure 4 (even/odd synchronization patterns) | [`figures::figure4`] | `fig4_patterns` |
//! | protocol ablation (extension) | [`sweeps::protocol_ablation`] | `ablation_protocols` |
//! | matched-delay margin sweep (extension) | [`sweeps::margin_sweep`] | `ablation_margin` |
//! | pipeline depth/imbalance sweep (extension) | [`sweeps::pipeline_sweep`] | `sweep_pipeline` |
//! | engine batch workload (extension) | [`batch::run_batch`] | `batch_engine` |
//! | verification hot-path sweep (extension) | [`verify_hot::run_verify_hot`] | `verify_hot` |
//! | service store workload (extension) | [`service::run_service_bench`] | `service_bench` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod figures;
pub mod service;
pub mod sweeps;
pub mod table1;
pub mod verify_hot;
pub mod workloads;

pub use table1::{run_table1, Table1, Table1Config};
