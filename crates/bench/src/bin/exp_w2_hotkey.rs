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
        seed: 0x5732, // "W2"
        batches: if smoke { knobs.batches.min(6) } else { knobs.batches },
        batch_size: if smoke { knobs.batch_size.min(64) } else { knobs.batch_size },
        kind: WorkloadKind::HotKey {
            keyspace: 4096,
            top_k: 16,
            rotate_every: 4,
            hot_fraction: 0.9,
        },
    };
    spec.validate().unwrap_or_else(|e| RunError::new("W2 spec", format!("{e:?}")).exit());

    let tel = experiment_telemetry();
    let mut table = Table::new("W2: hot-key storm on a rotating top-k set", ARM_HEADERS);
    let mut rows = Vec::new();
    for (arm, campaign) in [("control", "none"), ("churn+dos", "churn+dos")] {
        let r = run_arm(&spec, arm, campaign, &tel);
        table.row(arm_row(arm, &r));
        rows.push(arm_json(arm, &r));
    }
    table.print();

    let result = ExperimentResult {
        id: "W2".into(),
        title: "Hot-key storms on a rotating top-k set".into(),
        claim: "Extreme key skew (90% of ops on a rotating top-16 set) stays within the \
                Theorem 8 congestion envelope: completion is total in the control arm and \
                the churn+DoS campaign degrades goodput, not the epoch machinery"
            .into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("wrote {}", path.display());
    if let Some(p) = write_telemetry_or_exit(
        "W2",
        &tel,
        &[("experiment", "W2"), ("smoke", if smoke { "yes" } else { "no" })],
    ) {
        println!("wrote {}", p.display());
    }
}
