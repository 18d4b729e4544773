//! W1 — the robust DHT under heavy Zipf-skewed get/put load.
//!
//! Drives seed-deterministic Zipf key mixes through `RobustDht` in a
//! fault-free control arm and a churn+DoS arm (churn-as-blocking plus
//! the A5/A6 DoS families, union-capped), and reports goodput, tail
//! latency in rounds (p50/p99/p999) and goodput per communication-work
//! bit. Expected shape: the control arm completes everything; the
//! faulted arm loses only ops whose quorum the block set starves while
//! the reconfiguration keeps the epochs alive.
//!
//! `WORKLOAD_BATCHES` / `WORKLOAD_BATCH_SIZE` scale the run.

use crate::driver::{Experiment, Run, RunError};
use crate::wseries::run_series;
use overlay_workload::{env_knobs, WorkloadKind, WorkloadSpec};

pub const EXP: Experiment = Experiment::new(
    "W1",
    "Robust DHT under heavy Zipf-skewed get/put load",
    "Theorem 8 availability holds under load: the fault-free arm completes every \
            op, and under a capped churn+DoS campaign the DHT keeps serving with bounded \
            tail latency while reconfiguration epochs continue",
    run,
)
.with_telemetry();

fn run(run: &mut Run) -> Result<(), RunError> {
    let knobs = env_knobs().map_err(|e| RunError::new("workload knobs", e))?;
    let spec = WorkloadSpec {
        n: 512,
        seed: 0x5731, // "W1"
        batches: knobs.batches,
        batch_size: knobs.batch_size,
        kind: WorkloadKind::ZipfKv { keyspace: 4096, skew: 1.1, read_fraction: 0.7 },
    };
    run_series(run, "W1: DHT under Zipf-skewed load", &spec)
}
