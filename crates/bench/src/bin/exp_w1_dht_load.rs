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
//! `--smoke` shrinks the run for CI. `WORKLOAD_BATCHES` /
//! `WORKLOAD_BATCH_SIZE` scale the full run.

use overlay_workload::{env_knobs, WorkloadKind, WorkloadSpec};
use reconfig_bench::wseries::{arm_json, arm_row, run_arm, ARM_HEADERS};
use reconfig_bench::{
    experiment_telemetry, write_json_or_exit, write_telemetry_or_exit, ExperimentResult, RunError,
    Table,
};

fn main() {
    reconfig_bench::backend_or_exit();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let knobs = env_knobs().unwrap_or_else(|e| RunError::new("workload knobs", e).exit());

    let spec = WorkloadSpec {
        n: if smoke { 256 } else { 512 },
        seed: 0x5731, // "W1"
        batches: if smoke { knobs.batches.min(6) } else { knobs.batches },
        batch_size: if smoke { knobs.batch_size.min(64) } else { knobs.batch_size },
        kind: WorkloadKind::ZipfKv { keyspace: 4096, skew: 1.1, read_fraction: 0.7 },
    };
    spec.validate().unwrap_or_else(|e| RunError::new("W1 spec", format!("{e:?}")).exit());

    let tel = experiment_telemetry();
    let mut table = Table::new("W1: DHT under Zipf-skewed load", ARM_HEADERS);
    let mut rows = Vec::new();
    for (arm, campaign) in [("control", "none"), ("churn+dos", "churn+dos")] {
        let r = run_arm(&spec, arm, campaign, &tel);
        table.row(arm_row(arm, &r));
        rows.push(arm_json(arm, &r));
    }
    table.print();

    let result = ExperimentResult {
        id: "W1".into(),
        title: "Robust DHT under heavy Zipf-skewed get/put load".into(),
        claim: "Theorem 8 availability holds under load: the fault-free arm completes every \
                op, and under a capped churn+DoS campaign the DHT keeps serving with bounded \
                tail latency while reconfiguration epochs continue"
            .into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("wrote {}", path.display());
    if let Some(p) = write_telemetry_or_exit(
        "W1",
        &tel,
        &[("experiment", "W1"), ("smoke", if smoke { "yes" } else { "no" })],
    ) {
        println!("wrote {}", p.display());
    }
}
