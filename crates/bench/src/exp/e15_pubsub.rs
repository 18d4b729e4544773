//! E15 — Section 7.3: the publish-subscribe system built on the robust
//! DHT aggregates publications per key, stores them under consecutive
//! indices, and serves subscribers correctly under bounded blocking.
//!
//! Expected shape: 100% of publications stored and fetched back in order
//! for every batch shape, with aggregation rounds proportional to the
//! butterfly depth rather than the batch size.

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_apps::dht::RobustDht;
use overlay_apps::pubsub::PubSub;
use simnet::{BlockSet, NodeId};

pub const EXP: Experiment = Experiment::new("E15", "Robust publish-subscribe", "Section 7.3", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 1024usize;
    run.table("E15: robust publish-subscribe (Section 7.3)");
    for &(batch, topics) in &[(64usize, 4u64), (256, 4), (256, 32), (512, 64)] {
        for &with_blocking in &[false, true] {
            let mut ps = PubSub::new(n, 1100 + batch as u64);
            let blocked = if with_blocking {
                let budget = RobustDht::blocking_budget(n, 1.0);
                (0..budget as u64).map(|i| NodeId((i * 53) % n as u64)).collect()
            } else {
                BlockSet::none()
            };
            let pubs: Vec<(u64, u64)> =
                (0..batch as u64).map(|i| (i % topics, 10_000 + i)).collect();
            let m = ps.publish_batch(&pubs, &blocked).expect("publish succeeds");
            // Verify every topic's stream comes back complete and ordered.
            let mut fetched_ok = 0usize;
            for t in 0..topics {
                let stream = ps.fetch(t, &blocked).expect("fetch succeeds");
                let expected: Vec<u64> =
                    (0..batch as u64).filter(|i| i % topics == t).map(|i| 10_000 + i).collect();
                if stream == expected {
                    fetched_ok += 1;
                }
            }
            run.row(
                Row::new()
                    .cell("pubs", "pubs", batch)
                    .cell("topics", "topics", topics)
                    .cell("blocked", "blocked", blocked.len())
                    .cell_as("stored", "stored", m.stored, format!("{}/{}", m.stored, m.submitted))
                    .cell_as(
                        "fetched ok",
                        "fetched_ok_topics",
                        fetched_ok,
                        format!("{fetched_ok}/{topics}"),
                    )
                    .cell("agg rounds", "rounds", m.rounds),
            );
            assert_eq!(m.stored, m.submitted);
            assert_eq!(fetched_ok as u64, topics);
        }
    }
    run.note("all publications are aggregated, numbered and retrievable in order,");
    run.note("with and without budget-level blocking — the Section 7.3 emulation works.");
    Ok(())
}
