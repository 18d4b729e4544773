//! W2 — hot-key storms on a rotating top-k set.
//!
//! 90% of ops hammer a top-k hot set that rotates every few batches; the
//! rotation is seeded by the control plane's backend-executed sampling
//! salt, so the op stream itself depends on what the reconfiguration
//! sampled. Arms and reporting mirror W1: fault-free control vs a capped
//! churn+DoS campaign, with p50/p99/p999 latency in rounds and goodput
//! per communication-work bit. Expected shape: hot-key skew raises
//! congestion-driven tail latency but completion stays total in the
//! control arm.
//!
//! `WORKLOAD_BATCHES` / `WORKLOAD_BATCH_SIZE` scale the run.

use crate::driver::{Experiment, Run, RunError};
use crate::wseries::run_series;
use overlay_workload::{env_knobs, WorkloadKind, WorkloadSpec};

pub const EXP: Experiment = Experiment::new(
    "W2",
    "Hot-key storms on a rotating top-k set",
    "Extreme key skew (90% of ops on a rotating top-16 set) stays within the \
            Theorem 8 congestion envelope: completion is total in the control arm and \
            the churn+DoS campaign degrades goodput, not the epoch machinery",
    run,
)
.with_telemetry();

fn run(run: &mut Run) -> Result<(), RunError> {
    let knobs = env_knobs().map_err(|e| RunError::new("workload knobs", e))?;
    let spec = WorkloadSpec {
        n: 512,
        seed: 0x5732, // "W2"
        batches: knobs.batches,
        batch_size: knobs.batch_size,
        kind: WorkloadKind::HotKey {
            keyspace: 4096,
            top_k: 16,
            rotate_every: 4,
            hot_fraction: 0.9,
        },
    };
    run_series(run, "W2: hot-key storm on a rotating top-k set", &spec)
}
