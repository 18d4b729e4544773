//! A6 — the adaptive/oblivious survival boundary.
//!
//! For every attack schedule, scan the blocking fraction `r` upward and
//! record the *survival threshold*: the smallest budget at which the
//! schedule disconnects the Section 5 overlay within the run. The four
//! oblivious [`DosStrategy`]s run at the paper-model `2t` lateness —
//! their standard operating point in every other experiment (A5, E11):
//! by Theorem 6 their stale views are pre-reconfiguration, so whatever
//! structure they target no longer exists. The four adaptive strategies
//! run on the live view — the Section 1.1 adversary the oblivious
//! schedules only approximate. A final row replays the strongest
//! adaptive strategy at `2t` lateness.
//!
//! Expected shape: adaptivity is what moves the boundary. Against the
//! `2t`-late schedules the overlay survives the entire sweep; the
//! adaptive min-cut strategy reads the live group structure, silences
//! the cheapest group-level separator and pulls the survival threshold
//! down into the swept range — and yet the *same* strategy, delayed by
//! `2t`, never disconnects at any budget. Reconfiguration, not secrecy
//! of the topology, is what the defense rests on (Theorem 6).

use super::prelude::*;
use overlay_adversary::adaptive::{
    AdaptiveAdversary, AdaptiveHarness, AdaptiveStrategy, Attacker, MinCutAttack,
};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment = Experiment::swept(
    "A6",
    "Adaptive vs oblivious survival boundary",
    "Theorem 6 boundary: adaptivity beats oblivious schedules, lateness beats adaptivity",
    &[SWEEP],
    verdict,
);

/// Seeds per cell; a seed scans up to 45 budgets.
const K: u64 = 8;

const N: usize = 512;
const EPOCHS: u64 = 3;
const STEP: f64 = 0.01;
const MAX_BOUND: f64 = 0.46;
/// The equal-budget comparison point: just above the structural
/// threshold, where every schedule has enough budget to silence the
/// cheapest group separator *if it knows which one it is*.
const EQ_BUDGET: f64 = 0.15;

/// Same reasoning as the adaptive-adversary integration tests: `c = 1`
/// gives dimension 5 (32 groups of ~16), so a corner's neighbor groups
/// (~80 members of 512) are silenceable inside the swept budgets. The
/// default `c = 4` puts every separator above the sweep.
fn params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

/// One attack schedule: an oblivious strategy (always `2t` late) or an
/// adaptive one, live or `late_epochs` epochs late.
enum Spec {
    Oblivious(DosStrategy),
    Adaptive(AdaptiveStrategy, u64),
}

impl Spec {
    /// Lateness in epochs (0 = online, 2 = the paper's `2t`).
    fn late_epochs(&self) -> u64 {
        match self {
            Spec::Oblivious(_) => 2,
            Spec::Adaptive(_, late) => *late,
        }
    }

    fn label(&self) -> String {
        match self {
            Spec::Oblivious(s) => format!("oblivious:{s:?}"),
            Spec::Adaptive(s, 0) => s.name().into(),
            Spec::Adaptive(s, late) => format!("{} @{late}t", s.name()),
        }
    }
}

/// The four oblivious strategies, the four adaptive ones live, and the
/// strongest adaptive one (min-cut) replayed `2t` late.
fn specs() -> Vec<Spec> {
    let obl = [
        DosStrategy::Random,
        DosStrategy::IsolateNode,
        DosStrategy::GroupTargeted,
        DosStrategy::Bisection,
    ];
    let live = AdaptiveStrategy::all().into_iter().map(|s| Spec::Adaptive(s, 0));
    let late = Spec::Adaptive(AdaptiveStrategy::MinCut(MinCutAttack::default()), 2);
    obl.into_iter().map(Spec::Oblivious).chain(live).chain([late]).collect()
}

const SWEEP: Sweep = Sweep {
    title: "A6: adaptive vs oblivious survival boundary (n = 512, c = 1, 3 epochs)",
    k: K,
    axes: || {
        let shown = |s: &Spec| (format!("{} ({}t)", s.label(), s.late_epochs()), s.label());
        vec![Axis::shown("schedule", specs().iter().map(shown).collect::<Vec<_>>())]
    },
    cell,
};

/// Fraction of rounds `spec` keeps the overlay *disconnected* at blocking
/// fraction `bound` (0.0 = never hurt it).
fn damage(spec: &Spec, bound: f64, seed: u64) -> f64 {
    let [overlay_seed, attacker_seed] = split(seed);
    let ov = DosOverlay::new(N, params(), overlay_seed);
    let lateness = spec.late_epochs() * ov.epoch_len();
    let rounds = EPOCHS * ov.epoch_len();
    let mut adv: Box<dyn Attacker> = match spec {
        Spec::Oblivious(s) => Box::new(DosAdversary::new(*s, bound, lateness, attacker_seed)),
        Spec::Adaptive(s, _) => Box::new(AdaptiveHarness::new(s.clone(), bound, lateness)),
    };
    let out = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
    (out.rounds - out.connected_rounds) as f64 / out.rounds as f64
}

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let spec = &specs()[cell.at("schedule")];
    // Ascending scan: the first bound that disconnects is r*.
    let mut bounds = (1..).map(|i| i as f64 * STEP).take_while(|&b| b < MAX_BOUND);
    let threshold = bounds.find(|&b| damage(spec, b, seed) > 0.0);
    Ok(Metrics::new()
        .rate("disconnects", threshold.is_some())
        .maybe("survival_threshold", threshold)
        .value("eq_damage", damage(spec, EQ_BUDGET, seed)))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    // The cells are in `specs()` order.
    let specs = specs();
    let cells = || t[0].iter().zip(&specs);
    let oblivious: Vec<&Agg> =
        cells().filter(|(_, s)| matches!(s, Spec::Oblivious(_))).map(|(a, _)| a).collect();
    let late_hold =
        cells().filter(|(_, s)| s.late_epochs() > 0).all(|(a, _)| a.never("disconnects"));
    // An adaptive schedule disconnects on more seeds than any oblivious
    // one (Wilson intervals apart) and does more damage at r = 0.15 on
    // average.
    let beats = |a: &Agg| {
        let (lo, damage) = (a.wilson("disconnects").0, a.mean("eq_damage"));
        oblivious.iter().all(|o| lo > o.wilson("disconnects").1 && damage > o.mean("eq_damage"))
    };
    let live_wins = cells().filter(|(_, s)| s.late_epochs() == 0).any(|(a, _)| beats(a));
    vec![
        Check::claim("no 2t-late schedule disconnects at any swept budget, any seed", late_hold),
        Check::claim(
            "a live adaptive schedule beats every oblivious one at equal budget",
            live_wins,
        ),
    ]
}
