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
//! op count scales quadratically in batches.

use crate::driver::{Experiment, Run, RunError};
use crate::wseries::run_series;
use overlay_workload::{env_knobs, WorkloadKind, WorkloadSpec};

pub const EXP: Experiment = Experiment::new(
    "W3",
    "Chat/feed fan-out with per-topic subscriber churn",
    "The Section 7 pubsub serves fan-out feeds under subscriber churn: the \
            control arm delivers every publish and fetch, and a capped churn+DoS \
            campaign on the overlay suppresses deliveries without collapsing the feed",
    run,
)
.with_telemetry();

fn run(run: &mut Run) -> Result<(), RunError> {
    let knobs = env_knobs().map_err(|e| RunError::new("workload knobs", e))?;
    let spec = WorkloadSpec {
        n: 512,
        seed: 0x5733, // "W3"
        batches: knobs.batches.min(16),
        batch_size: knobs.batch_size.min(64),
        kind: WorkloadKind::Chat {
            topics: 64,
            skew: 1.0,
            subscribers: 256,
            churn_rate: 1.3,
            fanout_cap: 4,
        },
    };
    run_series(run, "W3: chat fan-out under subscriber churn", &spec)
}
