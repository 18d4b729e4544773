//! E15 — Section 7.3: the publish-subscribe system built on the robust
//! DHT aggregates publications per key, stores them under consecutive
//! indices, and serves subscribers correctly under bounded blocking.
//!
//! Expected shape: every publication stored and fetched back in order
//! for every batch shape, with aggregation rounds proportional to the
//! butterfly depth rather than the batch size.

use super::prelude::*;
use overlay_apps::dht::RobustDht;
use overlay_apps::pubsub::PubSub;
use serde_json::json;
use simnet::{BlockSet, NodeId};

pub const EXP: Experiment =
    Experiment::swept("E15", "Robust publish-subscribe", "Section 7.3", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 16;

/// (publications, topics) per batch.
const SHAPES: [(u64, u64); 4] = [(64, 4), (256, 4), (256, 32), (512, 64)];

const SWEEP: Sweep = Sweep {
    title: "E15: robust publish-subscribe at n = 1024 (Section 7.3)",
    k: K,
    axes: || {
        let shape = |(p, t)| (format!("{p} pubs / {t} topics"), json!({"pubs": p, "topics": t}));
        vec![
            Axis::shown("batch", SHAPES.map(shape)),
            Axis::shown("blocking", [("none", false), ("budget", true)]),
        ]
    },
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n = 1024usize;
    let (batch, topics) = SHAPES[cell.at("batch")];
    let mut ps = PubSub::new(n, seed);
    let budget = if cell.at("blocking") == 1 { RobustDht::blocking_budget(n, 1.0) } else { 0 };
    let blocked: BlockSet = (0..budget as u64).map(|i| NodeId((i * 53) % n as u64)).collect();
    let value = |i: u64| 10_000 + i;
    let pubs: Vec<(u64, u64)> = (0..batch).map(|i| (i % topics, value(i))).collect();
    let failed = |what| move |e| RunError::new(what, format!("{e:?}"));
    let m = ps.publish_batch(&pubs, &blocked).map_err(failed("publish a batch"))?;
    let mut fetched_ok = 0u64;
    for t in 0..topics {
        let stream = ps.fetch(t, &blocked).map_err(failed("fetch a topic"))?;
        fetched_ok +=
            u64::from(stream.into_iter().eq((t..batch).step_by(topics as usize).map(value)));
    }
    Ok(Metrics::new()
        .count("blocked", blocked.len())
        .rate("stored_all", m.stored == m.submitted)
        .rate("fetched_all", fetched_ok == topics)
        .count("rounds", m.rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let stored = t[0].iter().all(|a| a.always("stored_all"));
    let fetched = t[0].iter().all(|a| a.always("fetched_all"));
    vec![
        Check::claim("every publication is stored, every seed", stored),
        Check::claim("every topic reads back complete and in order", fetched),
    ]
}
