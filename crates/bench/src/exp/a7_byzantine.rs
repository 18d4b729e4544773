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

use crate::driver::{or_null, Experiment, Row, Run, RunError};
use overlay_adversary::adaptive::{AdaptiveHarness, Attacker};
use overlay_adversary::byzantine::{
    ByzBudget, ByzHarness, ChaosCampaign, EclipseCampaign, ForgeCampaign, SybilCampaign,
};
use overlay_adversary::{AdaptiveStrategy, MinCutAttack};
use reconfig_core::byzantine::DefenseConfig;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};
use reconfig_core::monitor::Invariant;

pub const EXP: Experiment = Experiment::new(
    "A7",
    "Byzantine survival x defense matrix",
    "in-protocol defenses raise every Byzantine family's survival threshold",
    run,
);

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

struct Spec {
    label: &'static str,
    /// `(byz_budget, lateness_rounds, seed) -> adversary`.
    mk: fn(f64, u64, u64) -> Box<dyn Attacker>,
    /// Fraction of the Byzantine budget spent on DoS blocking (chaos
    /// composes blocking with Byzantine participation; pure families 0).
    block_share: f64,
}

fn specs() -> Vec<Spec> {
    fn budget(b: f64, block: f64) -> ByzBudget {
        ByzBudget { byz_fraction: b, joins_per_round: 4, block_bound: block }
    }
    vec![
        Spec {
            label: "byz:sybil",
            mk: |b, l, _| Box::new(ByzHarness::new(SybilCampaign::default(), budget(b, 0.0), l)),
            block_share: 0.0,
        },
        Spec {
            label: "byz:forge",
            mk: |b, l, _| {
                let campaign = ForgeCampaign { corrupt_rate: 2, ..ForgeCampaign::default() };
                Box::new(ByzHarness::new(campaign, budget(b, 0.0), l))
            },
            block_share: 0.0,
        },
        Spec {
            label: "byz:eclipse",
            mk: |b, l, _| Box::new(ByzHarness::new(EclipseCampaign::default(), budget(b, 0.0), l)),
            block_share: 0.0,
        },
        Spec {
            label: "byz:chaos",
            mk: |b, l, _| {
                let strategy = AdaptiveStrategy::MinCut(MinCutAttack::default());
                let blocker = Box::new(AdaptiveHarness::new(strategy, b / 2.0, l));
                let campaign = ChaosCampaign::default().with_blocker(blocker);
                Box::new(ByzHarness::new(campaign, budget(b, b / 2.0), l))
            },
            block_share: 0.5,
        },
    ]
}

/// Security violations recorded over one run of `epochs` epochs.
fn violations(
    spec: &Spec,
    defense: DefenseConfig,
    n: usize,
    bound: f64,
    epochs: u64,
    late_rounds: u64,
    seed: u64,
) -> u64 {
    let overlay = DosOverlay::new(n, params(), seed);
    let rounds = epochs * overlay.epoch_len();
    let mut r = FaultyRunner::paper_model(overlay)
        .with_dos_bound(bound * spec.block_share)
        .with_defenses(defense);
    let mut adv = (spec.mk)(bound, late_rounds, seed ^ 0xA7);
    r.run(&mut adv, rounds);
    SECURITY.iter().map(|&inv| r.monitor.count(inv)).sum()
}

fn run(run: &mut Run) -> Result<(), RunError> {
    let (n, epochs, step) = (512usize, 3u64, 0.02f64);
    let seed = 0xA7A7;
    let max_bound = 0.44;
    // Shared reference budget for the defended-vs-undefended comparison
    // and the lateness sweep.
    let eq_budget = 0.24;

    run.table("A7: Byzantine survival x defense matrix");
    // (family, defense-label, threshold) for the headline comparison.
    let mut matrix: Vec<(&'static str, String, Option<f64>)> = Vec::new();
    for spec in specs() {
        for defense in DefenseConfig::ablation() {
            // Ascending scan: the first Byzantine fraction that produces
            // a security violation is the survival threshold f*.
            let mut threshold = None;
            let mut bound = step;
            while bound < max_bound {
                if violations(&spec, defense, n, bound, epochs, 0, seed) > 0 {
                    threshold = Some(bound);
                    break;
                }
                bound += step;
            }
            let eq_viol = violations(&spec, defense, n, eq_budget, epochs, 0, seed);
            let shown =
                threshold.map(|b| format!("{b:.2}")).unwrap_or_else(|| format!("> {max_bound}"));
            run.row(
                Row::new()
                    .cell("family", "family", spec.label)
                    .cell("defense", "defense", defense.label())
                    .cell_as(
                        "survival threshold f*",
                        "survival_threshold",
                        or_null(threshold),
                        shown,
                    )
                    .cell("violations @ f=0.24", "eq_violations", eq_viol)
                    .key("swept_max", max_bound)
                    .key("eq_budget", eq_budget)
                    .key("epochs", epochs)
                    .key("n", n),
            );
            matrix.push((spec.label, defense.label(), threshold));
        }
    }

    // Lateness sweep at the chaos family's *all-defenses threshold*: the
    // chaos mix (the only family with a blocking component) from live
    // views to the paper's 2t, fully defended. Below the threshold the
    // defenses absorb everything and the sweep is flat zero, so sweep at
    // the smallest budget that still bites — what survives Byzantine
    // containment there is the DoS component, and lateness starves
    // exactly that.
    let chaos = specs().pop().ok_or_else(|| RunError::new("build chaos spec", "empty"))?;
    let all_label = DefenseConfig::all().label();
    let late_budget = matrix
        .iter()
        .find(|(f, dl, _)| *f == "byz:chaos" && *dl == all_label)
        .and_then(|(_, _, t)| *t)
        .unwrap_or(max_bound);
    let epoch_len = reconfig_core::dos::DosOverlay::epoch_len_for(n, &params());
    run.table(format!("A7 lateness sweep: byz:chaos, all defenses, f = {late_budget:.2}"));
    for (label, late) in [("0", 0), ("t/2", epoch_len / 2), ("t", epoch_len), ("2t", 2 * epoch_len)]
    {
        let v = violations(&chaos, DefenseConfig::all(), n, late_budget, epochs, late, seed);
        run.row(
            Row::new()
                .cell_as("lateness", "lateness_rounds", late, format!("{label} ({late} rounds)"))
                .key("lateness_label", label)
                .key("family", "byz:chaos")
                .key("defense", all_label.as_str())
                .cell("violations", "eq_violations", v)
                .key("eq_budget", late_budget)
                .key("epochs", epochs)
                .key("n", n),
        );
    }

    // Headline: does every family's all-defenses threshold beat its
    // undefended baseline?
    let mut all_improved = true;
    for spec_label in ["byz:sybil", "byz:forge", "byz:eclipse", "byz:chaos"] {
        let get = |d: &str| {
            matrix
                .iter()
                .find(|(f, dl, _)| *f == spec_label && dl == d)
                .map(|(_, _, t)| t.unwrap_or(f64::INFINITY))
                .unwrap_or(f64::INFINITY)
        };
        let (none, all) = (get("none"), get(&all_label));
        let verdict = if all > none { "raised" } else { "NOT raised" };
        all_improved &= all > none;
        let shown =
            |f: f64| if f.is_finite() { format!("{f:.2}") } else { format!("> {max_bound}") };
        run.note(format!(
            "{spec_label}: undefended f* = {}, all defenses f* = {} ({verdict})",
            shown(none),
            shown(all),
        ));
    }
    run.note("");
    if all_improved {
        run.note("every family's survival threshold rises under the full defense stack:");
        run.note("quorum voids forged updates and placement claims, the rate limit throttles");
        run.note("sybil floods, and the audit quarantines repeat forgers.");
    } else {
        run.note("warning: some family's threshold did not rise — inspect the matrix above.");
    }
    Ok(())
}
