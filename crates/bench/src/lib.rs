//! # reconfig-bench — experiment harness
//!
//! Shared machinery for the experiment binaries (`src/bin/exp_*.rs`) that
//! regenerate every checkable claim of the paper. See DESIGN.md section 3
//! for the experiment index.

pub mod report;
pub mod runner;
pub mod table;
pub mod telemetry_out;
pub mod wseries;

pub use report::{LoadedRun, ReportError};
pub use runner::{
    backend_or_exit, cpu_model, host_cpus, median, write_json, write_json_or_exit,
    ExperimentResult, RunError,
};
pub use table::Table;
pub use telemetry_out::{experiment_telemetry, write_telemetry, write_telemetry_or_exit};
pub use wseries::{w_series_table, workload_rows};
