//! E11 — Theorem 6: the reconfiguring hypercube-of-groups stays connected
//! under any `(1/2 - eps)`-bounded `Omega(log log n)`-late attack, while
//! the 0-late control breaches it.
//!
//! Expected shape: every `2t`-late row reports connectivity 1.0 and zero
//! starved rounds for every strategy; the 0-late GroupTargeted row MUST
//! breach (if it did not, our adversary would be too weak to make the
//! defense claim meaningful).

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment = Experiment::new("E11", "DoS survival", "Theorem 6", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 4096usize;
    let block_frac = 0.3f64;
    run.table("E11: DoS survival at n = 4096, 30% blocked per round (Theorem 6)");
    let strategies = [
        DosStrategy::Random,
        DosStrategy::GroupTargeted,
        DosStrategy::IsolateNode,
        DosStrategy::Bisection,
    ];
    for (si, strategy) in strategies.into_iter().enumerate() {
        for (li, lateness_epochs) in [2u64, 1, 0].into_iter().enumerate() {
            let ov = DosOverlay::new(n, DosParams::default(), 600 + si as u64);
            let (lateness, rounds) = (lateness_epochs * ov.epoch_len(), 4 * ov.epoch_len());
            let mut adv =
                DosAdversary::new(strategy, block_frac, lateness, 700 + (si * 3 + li) as u64);
            let out = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
            let rate = out.connectivity_rate();
            run.row(
                Row::new()
                    .cell("strategy", "strategy", format!("{strategy:?}"))
                    .cell_as(
                        "lateness",
                        "lateness_epochs",
                        lateness_epochs,
                        format!("{lateness_epochs}t"),
                    )
                    .cell("rounds", "rounds", out.rounds)
                    .float("connectivity", "connectivity", rate)
                    .cell("starved", "starved_rounds", out.starved_rounds)
                    .show("verdict", if rate == 1.0 { "defended" } else { "BREACHED" }),
            );
            if lateness_epochs == 2 {
                assert_eq!(rate, 1.0, "{strategy:?} must be defended at 2t lateness");
            }
        }
    }
    run.note("who wins: the defense at >= 2t lateness (all strategies, rate 1.0);");
    run.note("the attacker at 0 lateness with group targeting — the crossover the");
    run.note("impossibility remark of Section 1.1 predicts.");
    Ok(())
}
