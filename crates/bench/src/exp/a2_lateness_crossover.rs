//! A2 — ablation: where does the defense stop working as the adversary's
//! information gets fresher?
//!
//! Expected shape: connectivity 1.0 for lateness >= the reconfiguration
//! period, degrading to heavy breach at lateness 0 — the crossover sits
//! near one epoch length, exactly the `Omega(log log n)` the theorems
//! require.

use crate::driver::{Experiment, Row, Run, RunError};
use crate::table::f;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment = Experiment::new(
    "A2",
    "Lateness crossover",
    "Theorem 6's lateness requirement is tight in the epoch scale",
    run,
);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 4096usize;
    let t = DosOverlay::new(n, DosParams::default(), 0).epoch_len();
    run.table(format!("A2: lateness crossover at n = 4096 (epoch t = {t} rounds)"));
    for &lateness in &[0u64, t / 4, t / 2, t, 2 * t, 4 * t] {
        let ov = DosOverlay::new(n, DosParams::default(), 1200);
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 1300 + lateness);
        let out = FaultyRunner::paper_model(ov).run(&mut adv, 4 * t);
        run.row(
            Row::new()
                .cell_as(
                    "lateness",
                    "lateness",
                    lateness,
                    format!("{lateness} ({}t)", f(lateness as f64 / t as f64)),
                )
                .key("epoch_len", t)
                .show("rounds", out.rounds.to_string())
                .float("connectivity", "connectivity", out.connectivity_rate())
                .cell("starved rounds", "starved_rounds", out.starved_rounds),
        );
    }
    run.note("the crossover falls at roughly one reconfiguration period: an adversary");
    run.note("that is even one epoch behind attacks yesterday's groups and loses; one");
    run.note("that sees the current epoch isolates a group — hence Omega(log log n)-late.");
    Ok(())
}
