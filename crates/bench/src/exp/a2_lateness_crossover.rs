//! A2 — ablation: where does the defense stop working as the adversary's
//! information gets fresher?
//!
//! Expected shape: defended (connected in every round) for lateness >=
//! the reconfiguration period t, breached below it — the crossover sits
//! at one epoch length, exactly the `Omega(log log n)` the theorems
//! require.

use super::prelude::*;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment = Experiment::swept(
    "A2",
    "Lateness crossover",
    "Theorem 6's lateness requirement is tight in the epoch scale",
    &[SWEEP],
    verdict,
);

/// Seeds per cell.
const K: u64 = 16;

const N: usize = 4096;

/// The epoch length t at `N`.
fn epoch_len() -> u64 {
    DosOverlay::epoch_len_for(N, &DosParams::default())
}

const SWEEP: Sweep = Sweep {
    title: "A2: lateness crossover at n = 4096, GroupTargeted at 0.3, 4 epochs",
    k: K,
    axes: || {
        let t = epoch_len();
        let shown = |l: u64| (format!("{l} ({:.2}t)", l as f64 / t as f64), l);
        vec![Axis::shown("lateness", [0, t / 4, t / 2, t, 2 * t, 4 * t].map(shown))]
    },
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [overlay_seed, attacker_seed] = split(seed);
    let ov = DosOverlay::new(N, DosParams::default(), overlay_seed);
    let rounds = 4 * ov.epoch_len();
    let lateness = cell.u64("lateness");
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, attacker_seed);
    let out = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
    Ok(Metrics::new()
        .rate("defended", out.connectivity_rate() == 1.0)
        .value("connectivity", out.connectivity_rate())
        .count("starved_rounds", out.starved_rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let t_epoch = epoch_len() as f64;
    let (late, early): (Vec<&Agg>, Vec<&Agg>) =
        t[0].iter().partition(|a| a.at("lateness") >= t_epoch);
    let defended = late.iter().all(|a| a.always("defended"));
    let breached = early.iter().all(|a| a.wilson("defended").1 < 0.5);
    vec![
        Check::claim("lateness >= t: defended on every seed", defended),
        Check::control("lateness < t: breached on most seeds (defended hi < 1/2)", breached),
    ]
}
