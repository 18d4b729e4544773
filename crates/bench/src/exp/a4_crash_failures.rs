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

use crate::driver::{Experiment, Row, Run, RunError};
use reconfig_core::churndos::{CrashScenario, CrashVisibility};
use simnet::{BlockSet, NodeId};

pub const EXP: Experiment =
    Experiment::new("A4", "Crash-failure ambiguity", "Section 6 closing discussion", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 400usize;
    let crashes = 20usize;
    let blocked_live = 30usize;
    let contact_set = 10usize;
    run.table("A4: crash failures vs DoS ambiguity (Section 6 discussion)");

    let configs: Vec<(&str, CrashVisibility)> = vec![
        ("distinguishable", CrashVisibility::Distinguishable),
        ("ambiguous", CrashVisibility::Indistinguishable { patience: 1 }),
        ("ambiguous", CrashVisibility::Indistinguishable { patience: 3 }),
        ("ambiguous", CrashVisibility::Indistinguishable { patience: 6 }),
    ];
    for (idx, (name, vis)) in configs.into_iter().enumerate() {
        let mut sc = CrashScenario::new(n, vis, 42 + idx as u64);
        let victims = BlockSet::from(sc.crash_random(crashes));
        // The DoS adversary keeps 30 *live* nodes silent for the first 4
        // epochs (well within its (1/2 - eps) budget), disjoint from the
        // crashed set so the bookkeeping below is unambiguous.
        let blocked_ids: Vec<NodeId> =
            (0..n as u64).map(NodeId).filter(|&v| !victims.contains(v)).take(blocked_live).collect();
        let blocked = BlockSet::from(blocked_ids.clone());
        let group_of = |v: NodeId| -> Vec<NodeId> {
            (1..=contact_set as u64).map(|i| NodeId((v.raw() + i) % n as u64)).collect()
        };
        let mut handled = 0;
        let mut wrong = 0;
        let mut wrongly_evicted: Vec<NodeId> = Vec::new();
        let none = BlockSet::none();
        for ep in 0..8 {
            // Blocking lasts 4 epochs, between the low and high patience
            // settings — that is where the trade-off lives.
            let this_round = if ep < 4 { &blocked } else { &none };
            let out = sc.epoch(this_round, group_of);
            handled += out.crashes_handled;
            wrong += out.wrong_evictions;
            // In id order: the rejoin budgets below alternate by position.
            for &b in &blocked_ids {
                if !sc.members().contains(&b) && !wrongly_evicted.contains(&b) {
                    wrongly_evicted.push(b);
                }
            }
        }
        // Blocking lifted; the evicted try to come back. Half of them face
        // an adversary that learned their full contact set from the stale
        // topology (isolation); half face one with half the budget.
        let mut rejoined = 0;
        let mut isolated = 0;
        for (i, v) in wrongly_evicted.into_iter().enumerate() {
            let budget = if i % 2 == 0 { contact_set } else { contact_set / 2 };
            if sc.attempt_rejoin(v, budget) {
                rejoined += 1;
            } else {
                isolated += 1;
            }
        }
        let patience = match vis {
            CrashVisibility::Distinguishable => "-".to_string(),
            CrashVisibility::Indistinguishable { patience } => patience.to_string(),
        };
        run.row(
            Row::new()
                .cell("visibility", "visibility", name)
                .cell("patience", "patience", patience)
                .cell_as(
                    "crashes handled",
                    "crashes_handled",
                    handled,
                    format!("{handled}/{crashes}"),
                )
                .cell("wrong evictions", "wrong_evictions", wrong)
                .cell("rejoined", "rejoined", rejoined)
                .cell("isolated", "isolated", isolated),
        );
    }
    run.note("distinguishable crashes cost nothing; ambiguous silence forces a choice");
    run.note("between ghost members (high patience) and wrong evictions whose victims");
    run.note("the adversary isolates on return — exactly the paper's closing caveat.");
    Ok(())
}
