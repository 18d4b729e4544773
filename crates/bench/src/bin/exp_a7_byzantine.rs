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

use overlay_adversary::adaptive::AdaptiveHarness;
use overlay_adversary::byzantine::{
    ByzAttacker, ByzBudget, ByzHarness, ChaosCampaign, EclipseCampaign, ForgeCampaign,
    SybilCampaign,
};
use overlay_adversary::AdaptiveStrategy;
use reconfig_bench::{write_json_or_exit, ExperimentResult, RunError, Table};
use reconfig_core::byzantine::{ByzantineRunner, DefenseConfig};
use reconfig_core::dos::DosParams;
use reconfig_core::healing::HealableOverlay;
use reconfig_core::monitor::Invariant;

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
    mk: fn(f64, u64, u64) -> Box<dyn ByzAttacker>,
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
                let strategy = AdaptiveStrategy::by_name("adaptive:min-cut").unwrap_or_else(|| {
                    RunError::new("resolve strategy `adaptive:min-cut`", "unknown name").exit()
                });
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
    let mut r = ByzantineRunner::new(n, params(), seed, defense);
    let rounds = epochs * r.overlay().epoch_len();
    let mut adv = (spec.mk)(bound, late_rounds, seed ^ 0xA7);
    r.run(&mut adv, rounds, bound * spec.block_share);
    SECURITY.iter().map(|&inv| r.monitor.count(inv)).sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, epochs, step) = if smoke { (128usize, 2u64, 0.08f64) } else { (512, 3, 0.02) };
    let seed = 0xA7A7;
    let max_bound = 0.44;
    // Shared reference budget for the defended-vs-undefended comparison
    // and the lateness sweep.
    let eq_budget = 0.24;

    let mut table = Table::new(
        if smoke {
            "A7 (smoke): Byzantine survival x defense matrix"
        } else {
            "A7: Byzantine survival x defense matrix"
        },
        &["family", "defense", "survival threshold f*", "violations @ f=0.24"],
    );
    let mut rows = Vec::new();
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
            table.row(vec![spec.label.into(), defense.label(), shown, eq_viol.to_string()]);
            rows.push(serde_json::json!({
                "family": spec.label,
                "defense": defense.label(),
                "survival_threshold": threshold
                    .map(serde_json::Value::from)
                    .unwrap_or(serde_json::Value::Null),
                "swept_max": max_bound,
                "eq_budget": eq_budget,
                "eq_violations": eq_viol,
                "epochs": epochs,
                "n": n,
            }));
            matrix.push((spec.label, defense.label(), threshold));
        }
    }
    table.print();
    println!();

    // Lateness sweep at the chaos family's *all-defenses threshold*: the
    // chaos mix (the only family with a blocking component) from live
    // views to the paper's 2t, fully defended. Below the threshold the
    // defenses absorb everything and the sweep is flat zero, so sweep at
    // the smallest budget that still bites — what survives Byzantine
    // containment there is the DoS component, and lateness starves
    // exactly that.
    let chaos = specs().pop().unwrap_or_else(|| RunError::new("build chaos spec", "empty").exit());
    let all_label = DefenseConfig::all().label();
    let late_budget = matrix
        .iter()
        .find(|(f, dl, _)| *f == "byz:chaos" && *dl == all_label)
        .and_then(|(_, _, t)| *t)
        .unwrap_or(max_bound);
    let epoch_len = reconfig_core::dos::DosOverlay::epoch_len_for(n, &params());
    let mut late_table = Table::new(
        format!("A7 lateness sweep: byz:chaos, all defenses, f = {late_budget:.2}"),
        &["lateness", "violations"],
    );
    for (label, late) in [("0", 0), ("t/2", epoch_len / 2), ("t", epoch_len), ("2t", 2 * epoch_len)]
    {
        let v = violations(&chaos, DefenseConfig::all(), n, late_budget, epochs, late, seed);
        late_table.row(vec![format!("{label} ({late} rounds)"), v.to_string()]);
        rows.push(serde_json::json!({
            "family": "byz:chaos",
            "defense": DefenseConfig::all().label(),
            "lateness_rounds": late,
            "lateness_label": label,
            "eq_budget": late_budget,
            "eq_violations": v,
            "epochs": epochs,
            "n": n,
        }));
    }
    late_table.print();
    println!();

    // Headline: does every family's all-defenses threshold beat its
    // undefended baseline?
    let all_label = DefenseConfig::all().label();
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
        println!(
            "{spec_label}: undefended f* = {}, all defenses f* = {} ({verdict})",
            if none.is_finite() { format!("{none:.2}") } else { format!("> {max_bound}") },
            if all.is_finite() { format!("{all:.2}") } else { format!("> {max_bound}") },
        );
    }
    println!();
    if all_improved {
        println!("every family's survival threshold rises under the full defense stack:");
        println!("quorum voids forged updates and placement claims, the rate limit throttles");
        println!("sybil floods, and the audit quarantines repeat forgers.");
    } else {
        println!("warning: some family's threshold did not rise — inspect the matrix above.");
    }

    let result = ExperimentResult {
        // The smoke sweep writes to its own file so a PR-gate run never
        // clobbers a full-resolution results/a7.json.
        id: if smoke { "A7-smoke".into() } else { "A7".into() },
        title: "Byzantine survival x defense matrix".into(),
        claim: "in-protocol defenses raise every Byzantine family's survival threshold".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
