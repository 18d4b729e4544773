//! A4 — the crash-failure dilemma (closing discussion of Section 6).
//!
//! Crash failures extend Theorem 7's churn tolerance **only if** crashes
//! are distinguishable from DoS-blocked nodes. If silence is ambiguous,
//! any finite emulation patience forces a trade-off: evict too early and
//! merely-blocked nodes are thrown out (and the adversary, knowing their
//! logarithmic contact set from stale topology, isolates them on return);
//! wait longer and crashed ghosts linger in every group.
//!
//! Expected shape: the distinguishable row handles every crash with zero
//! collateral; the indistinguishable rows trade wrong evictions against
//! ghost-epochs as patience grows, and most wrongly evicted nodes are
//! isolated when the adversary targets their contacts.

use super::prelude::*;
use reconfig_core::churndos::{CrashScenario, CrashVisibility};
use simnet::{BlockSet, NodeId};

pub const EXP: Experiment = Experiment::swept(
    "A4",
    "Crash-failure ambiguity",
    "Section 6 closing discussion",
    &[SWEEP],
    verdict,
);

/// Seeds per cell.
const K: u64 = 16;

const N: usize = 400;
const CRASHES: usize = 20;
const BLOCKED_LIVE: usize = 30;
const CONTACT_SET: usize = 10;
/// Epochs the live nodes stay blocked: between the low and high patience
/// settings — that is where the trade-off lives.
const BLOCKED_EPOCHS: u32 = 4;

/// Patience in epochs; `None` = crashes are distinguishable.
const PATIENCE: [Option<u32>; 4] = [None, Some(1), Some(3), Some(6)];

const SWEEP: Sweep = Sweep {
    title: "A4: crash failures vs DoS ambiguity (Section 6 discussion)",
    k: K,
    axes: || {
        let shown = |p: Option<u32>| match p {
            None => ("distinguishable".to_string(), serde_json::Value::Null),
            Some(p) => (format!("ambiguous, patience {p}"), p.into()),
        };
        vec![Axis::shown("patience", PATIENCE.map(shown))]
    },
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let vis = match PATIENCE[cell.at("patience")] {
        None => CrashVisibility::Distinguishable,
        Some(patience) => CrashVisibility::Indistinguishable { patience },
    };
    let mut sc = CrashScenario::new(N, vis, seed);
    let victims = BlockSet::from(sc.crash_random(CRASHES));
    // The DoS adversary keeps live nodes silent (well within its
    // (1/2 - eps) budget), disjoint from the crashed set so the
    // bookkeeping below is unambiguous.
    let live = (0..N as u64).map(NodeId).filter(|&v| !victims.contains(v));
    let blocked_ids: Vec<NodeId> = live.take(BLOCKED_LIVE).collect();
    let blocked = BlockSet::from(blocked_ids.clone());
    let contacts = |v: NodeId| -> Vec<NodeId> {
        (1..=CONTACT_SET as u64).map(|i| NodeId((v.raw() + i) % N as u64)).collect()
    };
    let (mut handled, mut wrong, mut evicted) = (0, 0, Vec::new());
    let none = BlockSet::none();
    for ep in 0..2 * BLOCKED_EPOCHS {
        let out = sc.epoch(if ep < BLOCKED_EPOCHS { &blocked } else { &none }, contacts);
        handled += out.crashes_handled;
        wrong += out.wrong_evictions;
        // In id order: the rejoin budgets below alternate by position.
        for &b in &blocked_ids {
            if !sc.members().contains(&b) && !evicted.contains(&b) {
                evicted.push(b);
            }
        }
    }
    // Blocking lifted; the evicted try to come back. Half of them face
    // an adversary that learned their full contact set from the stale
    // topology (isolation); half face one with half the budget.
    let budget = |i: usize| if i % 2 == 0 { CONTACT_SET } else { CONTACT_SET / 2 };
    let back = evicted.iter().enumerate().filter(|&(i, &v)| sc.attempt_rejoin(v, budget(i)));
    let rejoined = back.count();
    Ok(Metrics::new()
        .count("crashes_handled", handled)
        .count("wrong_evictions", wrong)
        .count("rejoined", rejoined)
        .count("isolated", evicted.len() - rejoined))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let of = |keep: fn(Option<u64>) -> bool| {
        t[0].iter().filter(move |a| keep(a.level("patience").as_u64()))
    };
    let clean = of(|p| p.is_none())
        .all(|a| a.min("crashes_handled") == CRASHES as f64 && a.max("wrong_evictions") == 0.0);
    let hasty = of(|p| p.is_some_and(|p| p < BLOCKED_EPOCHS.into()))
        .all(|a| a.min("wrong_evictions") > 0.0);
    let patient = of(|p| p.is_some_and(|p| p > BLOCKED_EPOCHS.into()))
        .all(|a| a.max("wrong_evictions") == 0.0);
    vec![
        Check::claim("distinguishable crashes: all handled, no wrong eviction", clean),
        Check::claim("ambiguous, patience below the blocking: wrong evictions, every seed", hasty),
        Check::claim("ambiguous, patience above the blocking: no wrong eviction", patient),
    ]
}
