//! W3 — chat/feed fan-out over pubsub with per-topic subscriber churn.
//!
//! Zipf-popular topics receive publish batches while a churned
//! subscriber population catches up on its feeds (up to `fanout_cap`
//! readers per touched topic per batch). Subscribers that fall behind
//! pay one DHT read per backlog entry, which is where the chat tail
//! comes from. Arms mirror W1/W2: fault-free control vs a capped
//! churn+DoS campaign on the serving overlay, with subscriber churn
//! active in both.
//!
//! Batch sizes are capped below the KV workloads because every publish
//! routes individually and every fetch replays a growing backlog —
//! op count scales quadratically in batches. `--smoke` shrinks further.

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
        seed: 0x5733, // "W3"
        batches: if smoke { knobs.batches.min(4) } else { knobs.batches.min(16) },
        batch_size: if smoke { knobs.batch_size.min(16) } else { knobs.batch_size.min(64) },
        kind: WorkloadKind::Chat {
            topics: 64,
            skew: 1.0,
            subscribers: if smoke { 64 } else { 256 },
            churn_rate: 1.3,
            fanout_cap: 4,
        },
    };
    spec.validate().unwrap_or_else(|e| RunError::new("W3 spec", format!("{e:?}")).exit());

    let tel = experiment_telemetry();
    let mut table = Table::new("W3: chat fan-out under subscriber churn", ARM_HEADERS);
    let mut rows = Vec::new();
    for (arm, campaign) in [("control", "none"), ("churn+dos", "churn+dos")] {
        let r = run_arm(&spec, arm, campaign, &tel);
        table.row(arm_row(arm, &r));
        rows.push(arm_json(arm, &r));
    }
    table.print();

    let result = ExperimentResult {
        id: "W3".into(),
        title: "Chat/feed fan-out with per-topic subscriber churn".into(),
        claim: "The Section 7 pubsub serves fan-out feeds under subscriber churn: the \
                control arm delivers every publish and fetch, and a capped churn+DoS \
                campaign on the overlay suppresses deliveries without collapsing the feed"
            .into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("wrote {}", path.display());
    if let Some(p) = write_telemetry_or_exit(
        "W3",
        &tel,
        &[("experiment", "W3"), ("smoke", if smoke { "yes" } else { "no" })],
    ) {
        println!("wrote {}", p.display());
    }
}
