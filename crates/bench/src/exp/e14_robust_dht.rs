//! E14 — Theorem 8: the extended RoBuSt system serves any batch of
//! read/write requests (O(1) per non-blocked server) in `O(log^3 n)`
//! rounds with `O(log^3 n)` congestion under `gamma n^(1/log log n)`
//! blocked servers.
//!
//! Expected shape: every batch completes, with rounds and congestion far
//! below `log^3 n`, at every size within the budget (0x and 1x the
//! Theorem 8 allowance); 4x the allowance and two far-over-budget
//! control levels (25% and 45% of all servers) show the guarantee
//! degrading outside its regime.

use super::prelude::*;
use overlay_apps::dht::{DhtOp, RobustDht};
use simnet::{BlockSet, NodeId};

pub const EXP: Experiment =
    Experiment::swept("E14", "Robust DHT batch service", "Theorem 8", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 16;

/// The blocking levels; level `i` blocks `blocked_count(i, n, b)` servers
/// at size `n` with Theorem 8 budget `b`.
const LEVELS: [&str; 5] = ["none", "budget", "4x budget", "25%", "45%"];

fn blocked_count(level: usize, n: usize, b: usize) -> usize {
    [0, b, 4 * b, n / 4, 45 * n / 100][level]
}

const SWEEP: Sweep = Sweep {
    title: "E14: robust DHT batch service (Theorem 8)",
    k: K,
    axes: || vec![Axis::new("n", (10..=12).map(|e| 1u64 << e)), Axis::new("blocking", LEVELS)],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n = cell.u64("n") as usize;
    let count = blocked_count(cell.at("blocking"), n, RobustDht::blocking_budget(n, 1.0));
    let mut dht = RobustDht::new(n, 2.0, seed);
    let keys = 0..n as u64 / 4;
    let preload: Vec<DhtOp> = keys.clone().map(|k| DhtOp::Write { key: k, value: k + 7 }).collect();
    let pm = dht.serve_batch(&preload, &BlockSet::none());
    // A fixed spread of servers, blocked while the DHT reconfigures and
    // then while it serves a read batch.
    let blocked: BlockSet = (0..count as u64).map(|i| NodeId((i * 131) % n as u64)).collect();
    for _ in 0..dht.epoch_len() {
        dht.step(&blocked);
    }
    let reads: Vec<DhtOp> = keys.map(|k| DhtOp::Read { key: k }).collect();
    let m = dht.serve_batch(&reads, &blocked);
    Ok(Metrics::new()
        .rate("preloaded", pm.completed == pm.requests)
        .count("blocked", count)
        .count("requests", m.requests)
        .rate("completed_all", m.completed == m.requests)
        .count("completed", m.completed)
        .count("rounds", m.rounds)
        .count("congestion", m.congestion))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let within = || t[0].iter().filter(|a| a.is("blocking", "none") || a.is("blocking", "budget"));
    let preloaded = t[0].iter().all(|a| a.always("preloaded"));
    let served = within().all(|a| a.always("completed_all"));
    let fast = within().all(|a| a.max("rounds") < a.at("n").log2().powi(3));
    let mut worst = t[0].iter().filter(|a| a.is("blocking", "45%"));
    vec![
        Check::claim("every preload batch completes", preloaded),
        Check::claim("within the budget every batch completes on every seed", served),
        Check::claim("within the budget rounds stay below log^3 n", fast),
        Check::control("45% blocked loses completions on every seed", {
            worst.all(|a| a.never("completed_all"))
        }),
    ]
}
