//! # reconfig-bench — experiment harness
//!
//! The experiments that regenerate every checkable claim of the paper
//! ([`exp::ALL`], one module each) and the one driver that runs them
//! ([`driver`], the `exp` binary). See DESIGN.md section 3 for the
//! experiment index.

pub mod driver;
pub mod exp;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod telemetry_out;
pub mod wseries;

pub use driver::RunError;
pub use report::{LoadedRun, ReportError};
pub use runner::{median, ExperimentResult};
pub use table::Table;
pub use telemetry_out::write_telemetry;
pub use wseries::{w_series_table, workload_rows};
