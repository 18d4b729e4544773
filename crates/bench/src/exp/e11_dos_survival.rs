//! E11 — Theorem 6: the reconfiguring hypercube-of-groups stays connected
//! under any `(1/2 - eps)`-bounded `Omega(log log n)`-late attack, while
//! the 0-late control breaches it.
//!
//! Expected shape: every `2t`-late cell is defended (connected in every
//! round) on every seed, for every strategy; the 0-late GroupTargeted
//! cell breaches on most seeds (if it did not, our adversary would be too
//! weak to make the defense claim meaningful).

use super::prelude::*;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment =
    Experiment::swept("E11", "DoS survival", "Theorem 6", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 16;

const STRATEGIES: [DosStrategy; 4] = [
    DosStrategy::Random,
    DosStrategy::GroupTargeted,
    DosStrategy::IsolateNode,
    DosStrategy::Bisection,
];

const SWEEP: Sweep = Sweep {
    title: "E11: DoS survival at n = 4096, 30% blocked per round (Theorem 6)",
    k: K,
    axes: || {
        let lateness = [2u64, 1, 0].map(|l| (format!("{l}t"), l));
        let strategies = Axis::new("strategy", STRATEGIES.map(|s| format!("{s:?}")));
        vec![strategies, Axis::shown("lateness_epochs", lateness)]
    },
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [overlay_seed, attacker_seed] = split(seed);
    let ov = DosOverlay::new(4096, DosParams::default(), overlay_seed);
    let (lateness, rounds) = (cell.u64("lateness_epochs") * ov.epoch_len(), 4 * ov.epoch_len());
    let strategy = STRATEGIES[cell.at("strategy")];
    let mut adv = DosAdversary::new(strategy, 0.3, lateness, attacker_seed);
    let out = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
    Ok(Metrics::new()
        .rate("defended", out.connectivity_rate() == 1.0)
        .value("connectivity", out.connectivity_rate())
        .count("starved_rounds", out.starved_rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let at = |late: f64| t[0].iter().filter(move |a| a.at("lateness_epochs") == late);
    let defended = at(2.0).all(|a| a.always("defended"));
    let mut live_group = at(0.0).filter(|a| a.is("strategy", "GroupTargeted"));
    let breached = live_group.all(|a| a.wilson("defended").1 < 0.5);
    vec![
        Check::claim("2t-late: defended on every seed, every strategy", defended),
        Check::control(
            "0-late GroupTargeted: breached on most seeds (defended hi < 1/2)",
            breached,
        ),
    ]
}
