//! A7 — the Byzantine survival × defense matrix.
//!
//! For every Byzantine attack family (Sybil flood, message forging,
//! join-path eclipse, chaos mix with composed DoS blocking) and every
//! defense subset (none, each of rate-limit / quorum / audit alone, all
//! together), scan the Byzantine budget upward and record the *survival
//! threshold*: the smallest Byzantine fraction at which the run records
//! any security violation (connectivity, availability, honest majority,
//! Sybil concentration, or eclipse exposure). A second sweep holds the
//! budget fixed and varies the adversary's lateness `0 → 2t`, extending
//! the A2/A6 lateness story into the Byzantine setting.
//!
//! Expected shape: undefended, every family wins at a small budget — a
//! targeted Sybil flood captures one group's majority with a few dozen
//! identities, a single forger drains its group, corrupting *one*
//! low-id member eclipses the join path. Each defense moves exactly the
//! thresholds it should (quorum kills forgery and placement claims, the
//! rate limit slows floods, audit ejects repeat forgers), and with all
//! defenses on every family's threshold measurably exceeds its
//! undefended baseline. Lateness, as in A6, starves the chaos mix's
//! blocking component — reconfiguration remains the backbone defense.

use super::prelude::*;
use overlay_adversary::adaptive::{AdaptiveHarness, Attacker};
use overlay_adversary::byzantine::{
    ByzBudget, ByzHarness, ChaosCampaign, EclipseCampaign, ForgeCampaign, SybilCampaign,
};
use overlay_adversary::{AdaptiveStrategy, MinCutAttack};
use reconfig_core::byzantine::DefenseConfig;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};
use reconfig_core::monitor::Invariant;

pub const EXP: Experiment = Experiment::swept(
    "A7",
    "Byzantine survival x defense matrix",
    "in-protocol defenses raise every Byzantine family's survival threshold",
    &[MATRIX, LATENESS],
    verdict,
);

/// Seeds per cell; a seed scans up to 21 budgets.
const K: u64 = 4;

const N: usize = 512;
const EPOCHS: u64 = 3;
const STEP: f64 = 0.02;
const MAX_BOUND: f64 = 0.44;
/// Shared reference budget for the defended-vs-undefended comparison.
const EQ_BUDGET: f64 = 0.24;

/// Same small-group regime as A6 (`c = 1`): attacks bite inside the swept
/// budgets instead of all thresholds sitting above the sweep.
fn params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

/// The invariants that count as *security* failures. `BlockingBudget` is
/// adversary legality (the harness clamps it), not overlay survival.
const SECURITY: [Invariant; 5] = [
    Invariant::Connectivity,
    Invariant::Availability,
    Invariant::HonestMajority,
    Invariant::SybilConcentration,
    Invariant::EclipseExposure,
];

const FAMILIES: [&str; 4] = ["byz:sybil", "byz:forge", "byz:eclipse", "byz:chaos"];

/// Family `f`'s attacker at Byzantine budget `b`, `late` rounds late, and
/// the share of `b` it spends on DoS blocking (chaos composes blocking
/// with Byzantine participation; the pure families spend none).
fn attacker(f: usize, b: f64, late: u64) -> (Box<dyn Attacker>, f64) {
    let budget = |block| ByzBudget { byz_fraction: b, joins_per_round: 4, block_bound: block };
    match FAMILIES[f] {
        "byz:sybil" => {
            (Box::new(ByzHarness::new(SybilCampaign::default(), budget(0.0), late)), 0.0)
        }
        "byz:forge" => {
            let forge = ForgeCampaign { corrupt_rate: 2, ..ForgeCampaign::default() };
            (Box::new(ByzHarness::new(forge, budget(0.0), late)), 0.0)
        }
        "byz:eclipse" => {
            (Box::new(ByzHarness::new(EclipseCampaign::default(), budget(0.0), late)), 0.0)
        }
        _ => {
            let strategy = AdaptiveStrategy::MinCut(MinCutAttack::default());
            let blocker = Box::new(AdaptiveHarness::new(strategy, b / 2.0, late));
            let chaos = ChaosCampaign::default().with_blocker(blocker);
            (Box::new(ByzHarness::new(chaos, budget(b / 2.0), late)), 0.5)
        }
    }
}

const MATRIX: Sweep = Sweep {
    title: "A7: Byzantine survival x defense matrix (n = 512, c = 1, 3 epochs)",
    k: K,
    axes: || {
        let defenses =
            DefenseConfig::ablation().iter().map(DefenseConfig::label).collect::<Vec<_>>();
        vec![Axis::new("family", FAMILIES), Axis::new("defense", defenses)]
    },
    cell: matrix,
};

const LATENESS: Sweep = Sweep {
    title: "A7 lateness sweep: byz:chaos, all defenses, at the seed's own threshold",
    k: K,
    axes: || {
        let t = DosOverlay::epoch_len_for(N, &params());
        let shown = |(label, late): (&str, u64)| (format!("{label} ({late} rounds)"), late);
        let levels = [("0", 0), ("t/2", t / 2), ("t", t), ("2t", 2 * t)].map(shown);
        vec![Axis::shown("lateness_rounds", levels)]
    },
    cell: lateness,
};

/// Security violations recorded over one run of family `f`.
fn violations(f: usize, defense: DefenseConfig, bound: f64, late: u64, seed: u64) -> u64 {
    let [overlay_seed] = split(seed);
    let overlay = DosOverlay::new(N, params(), overlay_seed);
    let rounds = EPOCHS * overlay.epoch_len();
    let (mut adv, block_share) = attacker(f, bound, late);
    let mut r = FaultyRunner::paper_model(overlay)
        .with_dos_bound(bound * block_share)
        .with_defenses(defense);
    r.run(&mut adv, rounds);
    SECURITY.iter().map(|&inv| r.monitor.count(inv)).sum()
}

/// The survival threshold f*: the first Byzantine fraction of the
/// ascending scan that produces a security violation.
fn threshold(f: usize, defense: DefenseConfig, seed: u64) -> Option<f64> {
    let mut bounds = (1..).map(|i| i as f64 * STEP).take_while(|&b| b < MAX_BOUND);
    bounds.find(|&b| violations(f, defense, b, 0, seed) > 0)
}

fn matrix(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (f, defense) = (cell.at("family"), DefenseConfig::ablation()[cell.at("defense")]);
    let threshold = threshold(f, defense, seed);
    Ok(Metrics::new()
        .rate("violated", threshold.is_some())
        .maybe("survival_threshold", threshold)
        .count("eq_violations", violations(f, defense, EQ_BUDGET, 0, seed)))
}

/// The chaos mix (the only family with a blocking component), fully
/// defended, from live views to the paper's 2t, at the smallest budget
/// that still bites on this seed: below it the defenses absorb everything
/// and the sweep is flat zero. What survives Byzantine containment there
/// is the DoS component, and lateness starves exactly that.
fn lateness(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let chaos = FAMILIES.len() - 1;
    let budget = threshold(chaos, DefenseConfig::all(), seed).unwrap_or(MAX_BOUND);
    let v = violations(chaos, DefenseConfig::all(), budget, cell.u64("lateness_rounds"), seed);
    Ok(Metrics::new().value("budget", budget).count("violations", v))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let cell = |f: &str, d: &str| t[0].iter().find(|a| a.is("family", f) && a.is("defense", d));
    // The lowest threshold any seed reached, and the highest (infinite
    // when some seed never broke).
    let floor =
        |a: &Agg| if a.never("violated") { f64::INFINITY } else { a.min("survival_threshold") };
    let ceil =
        |a: &Agg| if a.always("violated") { a.max("survival_threshold") } else { f64::INFINITY };
    let all = DefenseConfig::all().label();
    let raised = FAMILIES.iter().all(|&f| match (cell(f, "none"), cell(f, &all)) {
        (Some(none), Some(all)) => floor(all) > ceil(none),
        _ => false,
    });
    let t_epoch = DosOverlay::epoch_len_for(N, &params()) as f64;
    let mut late = t[1].iter().filter(|a| a.at("lateness_rounds") >= t_epoch);
    let late_clean = late.all(|a| a.max("violations") == 0.0);
    vec![
        Check::claim("every family's threshold rises under all defenses, on every seed", raised),
        Check::claim("chaos at lateness >= t: no violation under all defenses", late_clean),
    ]
}
